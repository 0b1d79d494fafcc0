"""Memory accounting and analysis reports.

Byte figures model the serving layout (fp16 scalars by default); the
engine itself runs float64. All report builders are read-only over
engine outputs and emit CSV plus an equivalent JSON document.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    GenerationConfig,
    GenerationResult,
    generate,
    generate_fixed_baseline,
    prompt_head_data,
    reference_generate,
)
from .policies import CompressionPolicy, format_policy
from .profiler import HeadProfile, ProfilerConfig, profile_model, select_policy


class MetricsError(ValueError):
    """Raised on invalid metric inputs."""


@dataclass(frozen=True)
class MemoryModel:
    num_layers: int
    num_heads: int
    head_dim: int
    batch_size: int
    seq_len: int
    bytes_per_scalar: int = 2

    def __post_init__(self):
        for name in (
            "num_layers",
            "num_heads",
            "head_dim",
            "batch_size",
            "seq_len",
            "bytes_per_scalar",
        ):
            if getattr(self, name) < 1:
                raise MetricsError(f"{name} must be positive")


def full_cache_bytes(m: MemoryModel) -> int:
    """Bytes to hold K and V for every layer, head, and position."""
    return (
        2
        * m.num_layers
        * m.batch_size
        * m.seq_len
        * m.num_heads
        * m.head_dim
        * m.bytes_per_scalar
    )


def pruned_ratio(full_tokens: int, retained_tokens: int) -> float:
    if full_tokens <= 0:
        raise MetricsError("full_tokens must be > 0")
    if retained_tokens > full_tokens:
        raise MetricsError(
            f"retained {retained_tokens} exceeds full {full_tokens}"
        )
    return 1.0 - retained_tokens / full_tokens


def sidecar_overhead_fraction(m: MemoryModel) -> float:
    """Extra memory for cumulative scores relative to the KV cache.

    The score tensor drops the hidden dimension, so the ratio is exactly
    1 / head_dim.
    """
    return 1.0 / m.head_dim


# Table-style shapes for the common 7B..65B model sizes (batch 16, seq 512,
# fp16): hidden width = num_heads * 128.
WELL_KNOWN_SHAPES: dict[str, MemoryModel] = {
    "7b": MemoryModel(32, 32, 128, 16, 512, 2),
    "13b": MemoryModel(40, 40, 128, 16, 512, 2),
    "30b": MemoryModel(60, 52, 128, 16, 512, 2),
    "65b": MemoryModel(80, 64, 128, 16, 512, 2),
}


@dataclass(frozen=True)
class TradeoffPoint:
    T: float
    pruned_ratio: float
    mean_recovery: float

    def __post_init__(self):
        for name in ("T", "pruned_ratio", "mean_recovery"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0 + 1e-12:
                raise MetricsError(f"{name}={value} outside [0, 1]")


def layer_distribution_report(profile: HeadProfile) -> dict[int, dict[str, float]]:
    """Per-layer fraction of heads assigned to each policy."""
    per_layer: dict[int, dict[str, int]] = {}
    for (layer, _), decision in profile.items():
        bucket = per_layer.setdefault(layer, {})
        name = format_policy(decision.policy)
        bucket[name] = bucket.get(name, 0) + 1
    report: dict[int, dict[str, float]] = {}
    for layer, counts in sorted(per_layer.items()):
        total = sum(counts.values())
        report[layer] = {name: count / total for name, count in sorted(counts.items())}
    return report


@dataclass(frozen=True)
class ConsistencyEntry:
    layer: int
    head: int
    step: int
    policy: str
    matches_first: bool


def consistency_report(
    model,
    prompt_tokens: list[int],
    steps: list[int],
    profiler_cfg: ProfilerConfig,
    max_new_tokens: int | None = None,
) -> list[ConsistencyEntry]:
    """Re-profile at the listed decoding steps and compare against step 1.

    Step 1 is prompt encoding; step s sees the full attention state over
    the first prompt_len + s - 1 positions of an uncompressed reference
    run. Diagnostic only: the engine itself never re-profiles.
    """
    if not steps or sorted(steps) != list(steps) or steps[0] != 1:
        raise MetricsError("steps must be sorted ascending and start at 1")
    horizon = steps[-1] - 1
    if max_new_tokens is not None and horizon > max_new_tokens:
        raise MetricsError(
            f"step {steps[-1]} beyond generation length {max_new_tokens + 1}"
        )
    reference = reference_generate(
        model, prompt_tokens, GenerationConfig(max_new_tokens=horizon)
    )
    n = len(prompt_tokens)
    all_tokens = prompt_tokens + reference.tokens
    entries: list[ConsistencyEntry] = []
    first_policies: dict[tuple[int, int], CompressionPolicy] = {}
    for step in steps:
        length = n + step - 1
        _, _, head_data = prompt_head_data(model, all_tokens[:length], prompt_len=n)
        for key in sorted(head_data):
            policy = select_policy(*head_data[key], profiler_cfg).policy
            if step == steps[0]:
                first_policies[key] = policy
            entries.append(
                ConsistencyEntry(
                    layer=key[0],
                    head=key[1],
                    step=step,
                    policy=format_policy(policy),
                    matches_first=policy == first_policies[key],
                )
            )
    return entries


def stability_fraction(entries: list[ConsistencyEntry]) -> float:
    checked = [e for e in entries if e.step != 1]
    if not checked:
        return 1.0
    return sum(e.matches_first for e in checked) / len(checked)


def tradeoff_curve(
    model,
    prompt_tokens: list[int],
    T_values: list[float],
    base_cfg: ProfilerConfig | None = None,
) -> list[TradeoffPoint]:
    """Profiling-time pruning/recovery trade-off at each threshold."""
    base = base_cfg if base_cfg is not None else ProfilerConfig()
    _, _, head_data = prompt_head_data(model, prompt_tokens)
    n = len(prompt_tokens)
    points = []
    for T in T_values:
        profile = profile_model(head_data, replace(base, recovery_threshold=T))
        costs = [d.cost_tokens for _, d in profile.items()]
        recoveries = [d.recovery for _, d in profile.items()]
        points.append(
            TradeoffPoint(
                T=T,
                pruned_ratio=1.0 - sum(costs) / (len(costs) * n),
                mean_recovery=min(1.0, float(np.mean(recoveries))),
            )
        )
    return points


def run_pruned_ratio(result: GenerationResult, prompt_len: int) -> float:
    """Mean over steps and heads of the evicted-token fraction.

    Recounted from the diagnostics records: at step s the uncompressed
    cache would hold prompt_len + s - 1 rows per head.
    """
    if not result.records:
        raise MetricsError("no step records to summarize")
    ratios = []
    for rec in result.records:
        full = prompt_len + rec.step - 1
        per_head = [
            pruned_ratio(full, count) for count in rec.head_retained.values()
        ]
        ratios.append(float(np.mean(per_head)))
    return float(np.mean(ratios))


def run_mean_recovery(result: GenerationResult) -> float:
    values = [r.mean_recovery for r in result.records if r.mean_recovery is not None]
    if not values:
        raise MetricsError("records carry no recovery diagnostics")
    return float(np.mean(values))


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    pruned_ratio: float
    mean_step_recovery: float


def compare_adaptive_vs_fixed(
    model,
    prompt_tokens: list[int],
    profiler_cfg: ProfilerConfig,
    fixed_policies: list[CompressionPolicy],
    gen_cfg: GenerationConfig,
    extra_adaptive: dict[str, ProfilerConfig] | None = None,
) -> list[ComparisonRow]:
    """Adaptive profiling against fixed single-policy baselines.

    Extra adaptive variants (feasible-set removals or reorderings) run
    under their own names for the ablation comparisons.
    """
    n = len(prompt_tokens)
    rows = []
    adaptive = generate(model, prompt_tokens, profiler_cfg, gen_cfg)
    rows.append(
        ComparisonRow(
            method=f"adaptive[T={profiler_cfg.recovery_threshold:g}]",
            pruned_ratio=run_pruned_ratio(adaptive, n),
            mean_step_recovery=run_mean_recovery(adaptive),
        )
    )
    for name, cfg in (extra_adaptive or {}).items():
        result = generate(model, prompt_tokens, cfg, gen_cfg)
        rows.append(
            ComparisonRow(
                method=name,
                pruned_ratio=run_pruned_ratio(result, n),
                mean_step_recovery=run_mean_recovery(result),
            )
        )
    for policy in fixed_policies:
        result = generate_fixed_baseline(model, prompt_tokens, policy, gen_cfg)
        rows.append(
            ComparisonRow(
                method=f"fixed[{format_policy(policy)}]",
                pruned_ratio=run_pruned_ratio(result, n),
                mean_step_recovery=run_mean_recovery(result),
            )
        )
    return rows


def rows_to_csv(columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def rows_to_json(report: str, columns: list[str], rows: list[list]) -> str:
    payload = {
        "report": report,
        "columns": columns,
        "rows": [[v for v in row] for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def tradeoff_rows(points: list[TradeoffPoint]) -> tuple[list[str], list[list]]:
    return (
        ["T", "pruned_ratio", "mean_recovery"],
        [[p.T, p.pruned_ratio, p.mean_recovery] for p in points],
    )


def consistency_rows(entries: list[ConsistencyEntry]) -> tuple[list[str], list[list]]:
    return (
        ["layer", "head", "step", "policy", "matches_first"],
        [[e.layer, e.head, e.step, e.policy, e.matches_first] for e in entries],
    )


def comparison_rows(rows: list[ComparisonRow]) -> tuple[list[str], list[list]]:
    return (
        ["method", "pruned_ratio", "mean_step_recovery"],
        [[r.method, r.pruned_ratio, r.mean_step_recovery] for r in rows],
    )


def layer_distribution_rows(
    report: dict[int, dict[str, float]]
) -> tuple[list[str], list[list]]:
    rows = [
        [layer, policy, fraction]
        for layer, dist in sorted(report.items())
        for policy, fraction in sorted(dist.items())
    ]
    return ["layer", "policy", "fraction"], rows
