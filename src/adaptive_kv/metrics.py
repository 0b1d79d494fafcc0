"""Memory accounting and analysis reports.

Byte figures model the serving layout (fp16 scalars by default); the
engine stores float32 rows and float64 masses. All report builders are read-only over
engine outputs and return rows, which ``rows_to_csv`` renders as CSV and
``rows_to_json`` as a JSON document; the CLI writes each report in the
one format ``--format`` names.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np

from .engine import (
    GenerationConfig,
    GenerationResult,
    generate,
    prompt_head_data,
    reference_generate,
)
from .policies import CompressionPolicy, format_policy
from .profiler import HeadDecision, ProfilerConfig, select_policy


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
) -> list[ConsistencyEntry]:
    """Re-profile at the listed decoding steps and compare against step 1.

    Step 1 is prompt encoding; step s sees the full attention state over
    the first prompt_len + s - 1 positions of an uncompressed reference
    run. Diagnostic only: the engine itself never re-profiles.
    """
    if not steps or sorted(steps) != list(steps) or steps[0] != 1:
        raise MetricsError("steps must be sorted ascending and start at 1")
    horizon = steps[-1] - 1
    reference = reference_generate(
        model, prompt_tokens, GenerationConfig(max_new_tokens=horizon)
    )
    n = len(prompt_tokens)
    all_tokens = prompt_tokens + reference.tokens
    first: dict[tuple[int, int], CompressionPolicy] = {}  # each head's step-1 policy
    entries = []
    # One lazy prompt-pass stream alive at a time, so each step's heads are
    # profiled on O(P) statistics as they come.
    for step in steps:
        stream = prompt_head_data(model, all_tokens[: n + step - 1], prompt_len=n)
        for key, _, _, stats, codes in stream:
            policy = select_policy(stats, codes, n, profiler_cfg).policy
            if step == 1:
                first[key] = policy
            name = format_policy(policy)
            entries.append(ConsistencyEntry(*key, step, name, policy == first[key]))
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
    cfgs = [replace(base, recovery_threshold=T) for T in T_values]
    # One prompt pass: each head is profiled at every threshold on its
    # statistics as the stream yields them.
    per_T: list[list] = [[] for _ in cfgs]
    n = len(prompt_tokens)
    for _, _, _, stats, codes in prompt_head_data(model, prompt_tokens):
        for decisions, cfg in zip(per_T, cfgs):
            decisions.append(select_policy(stats, codes, n, cfg))
    points = []
    for T, decisions in zip(T_values, per_T):
        costs = [d.cost_tokens for d in decisions]
        recoveries = [d.recovery for d in decisions]
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
    under their own names for the ablation comparisons. A fixed policy
    runs as the one-candidate family ``ProfilerConfig.fixed``; a policy
    listed twice gets two rows.
    """
    methods = [(f"adaptive[T={profiler_cfg.recovery_threshold:g}]", profiler_cfg)]
    methods += (extra_adaptive or {}).items()
    methods += [
        (f"fixed[{format_policy(p)}]", ProfilerConfig.fixed(p)) for p in fixed_policies
    ]
    n = len(prompt_tokens)
    rows = []
    for method, cfg in methods:
        result = generate(model, prompt_tokens, cfg, gen_cfg)
        rows.append(
            ComparisonRow(method, run_pruned_ratio(result, n), run_mean_recovery(result))
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


def dataclass_rows(row_type: type, rows: list) -> tuple[list[str], list[list]]:
    """Columns named by ``row_type``'s fields, and each row's values in order.

    The columns come from the type, so an empty list still has a header.
    """
    columns = [f.name for f in fields(row_type)]
    return columns, [[getattr(row, name) for name in columns] for row in rows]


def profile_rows(
    profile: dict[tuple[int, int], HeadDecision],
) -> tuple[list[str], list[list]]:
    """One row per head: its policy, recovery and cost, in head order."""
    rows = [
        [layer, head, format_policy(d.policy), d.recovery, d.cost_tokens]
        for (layer, head), d in profile.items()
    ]
    return ["layer", "head", "policy", "recovery", "cost_tokens"], rows


def layer_distribution_rows(
    profile: dict[tuple[int, int], HeadDecision],
) -> tuple[list[str], list[list]]:
    """Per-layer fraction of heads assigned to each policy."""
    heads = Counter(layer for layer, _ in profile)
    counts = Counter(
        (layer, format_policy(d.policy)) for (layer, _), d in profile.items()
    )
    rows = [
        [layer, policy, count / heads[layer]]
        for (layer, policy), count in sorted(counts.items())
    ]
    return ["layer", "policy", "fraction"], rows
