"""One-shot per-head policy selection.

Selection keeps the cheapest policy in a nested feasible family whose
retained attention mass reaches the recovery threshold. Because the
family is nested, memory cost is nondecreasing along it, so the first
feasible policy is the cost argmin; the full-cache backstop at the end
guarantees feasibility. The per-row distance between the original and
compressed-renormalized attention rows is total variation, which equals
one minus the retained mass, so the constraint is implemented directly
as a mass threshold.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .attention import AttentionMap
from .policies import (
    CompressionPolicy,
    PolicyContext,
    RetainedSet,
    cache_memory_cost,
    feasible_set,
    format_policy,
    parse_policy,
    retained_indices,
)


class ProfilerError(ValueError):
    """Raised on invalid profiler configuration or inputs."""


class SelectionCriterion(Enum):
    RECOVERY_MASS = "recovery"
    COSINE_SIMILARITY = "cosine"


class RowAveraging(Enum):
    ALL_ROWS = "all"
    LAST_ROW = "last"


def recovery_ratio(
    A: AttentionMap,
    retained: RetainedSet,
    rows: RowAveraging = RowAveraging.ALL_ROWS,
) -> float:
    """Fraction of attention mass the retained set preserves.

    Mean over query rows of the retained (causally visible) mass; the
    ``rows`` option restricts to the final query row for sensitivity runs.
    """
    m = A.matrix
    idx = [i for i in retained.indices if i < A.size]
    if not idx:
        return 0.0
    per_row = m[:, idx].sum(axis=1)
    if rows is RowAveraging.LAST_ROW:
        return float(per_row[-1])
    return float(per_row.mean())


def evaluate_policy(
    A: AttentionMap,
    ctx: PolicyContext,
    policy: CompressionPolicy,
    rows: RowAveraging = RowAveraging.ALL_ROWS,
) -> HeadDecision:
    """Recovery and cache cost of one policy on one head."""
    retained = retained_indices(policy, ctx)
    return HeadDecision(policy, recovery_ratio(A, retained, rows), len(retained))


@dataclass(frozen=True)
class ProfilerConfig:
    recovery_threshold: float = 0.95
    feasible: tuple[CompressionPolicy, ...] = field(
        default_factory=lambda: tuple(feasible_set())
    )
    criterion: SelectionCriterion = SelectionCriterion.RECOVERY_MASS
    rows: RowAveraging = RowAveraging.ALL_ROWS

    def __post_init__(self):
        object.__setattr__(self, "feasible", tuple(self.feasible))
        if not 0.0 <= self.recovery_threshold <= 1.0:
            raise ProfilerError(
                f"recovery_threshold must be in [0, 1], got {self.recovery_threshold}"
            )
        if not self.feasible:
            raise ProfilerError("feasible set is empty")
        if not self.feasible[-1].is_full:
            raise ProfilerError(
                "last feasible policy must be the full cache (feasibility backstop)"
            )


def select_policy(
    A: AttentionMap, ctx: PolicyContext, cfg: ProfilerConfig
) -> tuple[CompressionPolicy, float]:
    """First policy in the nested family meeting the recovery threshold."""
    for policy in cfg.feasible:
        retained = retained_indices(policy, ctx)
        recovery = recovery_ratio(A, retained, cfg.rows)
        if recovery >= cfg.recovery_threshold:
            return policy, recovery
    # Unreachable given the full-cache backstop; keep a hard failure anyway.
    raise ProfilerError("no feasible policy met the threshold")


def masked_cosine_similarity(A: AttentionMap, retained: RetainedSet) -> float:
    """Cosine between the flattened map and its column-masked copy.

    Masking zeroes entries outside the retained columns without
    renormalizing, so the similarity reduces to the masked-to-full norm
    ratio; it is 1 exactly when nothing is masked.
    """
    m = A.matrix
    idx = [i for i in retained.indices if i < A.size]
    total = float(np.linalg.norm(m))
    masked = float(np.linalg.norm(m[:, idx])) if idx else 0.0
    if masked == 0.0:
        return 0.0
    return masked / total


def select_policy_by_similarity(
    A: AttentionMap,
    schemes: Sequence[CompressionPolicy],
    ctx: PolicyContext,
) -> CompressionPolicy:
    """Argmax of masked cosine similarity; ties go to the earlier scheme."""
    if not schemes:
        raise ProfilerError("schemes list is empty")
    best = schemes[0]
    best_sim = -1.0
    for policy in schemes:
        sim = masked_cosine_similarity(A, retained_indices(policy, ctx))
        if sim > best_sim:
            best, best_sim = policy, sim
    return best


@dataclass(frozen=True)
class HeadDecision:
    policy: CompressionPolicy
    recovery: float
    cost_tokens: int


@dataclass(frozen=True)
class HeadProfile:
    """Per-head policy choices, fixed once at prompt encoding."""

    decisions: Mapping[tuple[int, int], HeadDecision]

    def __post_init__(self):
        object.__setattr__(self, "decisions", dict(self.decisions))

    def __getitem__(self, key: tuple[int, int]) -> HeadDecision:
        return self.decisions[key]

    def __len__(self) -> int:
        return len(self.decisions)

    def items(self):
        return sorted(self.decisions.items())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["layer", "head", "policy", "recovery", "cost_tokens"])
        for (layer, head), d in self.items():
            writer.writerow(
                [layer, head, format_policy(d.policy), repr(d.recovery), d.cost_tokens]
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "HeadProfile":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != ["layer", "head", "policy", "recovery", "cost_tokens"]:
            raise ProfilerError(f"bad profile CSV header: {header}")
        decisions = {}
        for row in reader:
            layer, head = int(row[0]), int(row[1])
            decisions[(layer, head)] = HeadDecision(
                parse_policy(row[2]), float(row[3]), int(row[4])
            )
        return cls(decisions)


def _profile_one(
    args: tuple[AttentionMap, PolicyContext, ProfilerConfig]
) -> HeadDecision:
    A, ctx, cfg = args
    if cfg.criterion is SelectionCriterion.COSINE_SIMILARITY:
        policy = select_policy_by_similarity(A, cfg.feasible, ctx)
        recovery = recovery_ratio(A, retained_indices(policy, ctx), cfg.rows)
    else:
        policy, recovery = select_policy(A, ctx, cfg)
    return HeadDecision(policy, recovery, cache_memory_cost(policy, ctx))


def profile_model(
    head_data: Mapping[tuple[int, int], tuple[AttentionMap, PolicyContext]],
    cfg: ProfilerConfig,
    grid: Iterable[tuple[int, int]] | None = None,
    threads: int | None = None,
) -> HeadProfile:
    """Select a policy independently for every head of the model.

    Profiling happens exactly once per generation session; the resulting
    profile is immutable. Heads are processed concurrently when
    ``threads`` > 1, with results assembled in (layer, head) order so the
    outcome is independent of scheduling.
    """
    keys = sorted(head_data)
    if grid is not None:
        for key in grid:
            if key not in head_data:
                raise ProfilerError(
                    f"missing profiling data for head (layer={key[0]}, head={key[1]})"
                )
    jobs = [(head_data[k][0], head_data[k][1], cfg) for k in keys]
    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_profile_one, jobs))
    else:
        results = [_profile_one(job) for job in jobs]
    return HeadProfile(dict(zip(keys, results)))
