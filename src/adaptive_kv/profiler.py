"""One-shot per-head policy selection.

Selection has one criterion, recovered attention mass: it keeps the
cheapest policy in a nested feasible family whose retained attention
mass reaches the recovery threshold T. Because the
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
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .attention import BLOCK_ROWS, AttentionMap
from .policies import (
    CompressionPolicy,
    PolicyContext,
    feasible_set,
    format_policy,
    parse_policy,
    retained_indices,
)


class ProfilerError(ValueError):
    """Raised on invalid profiler configuration or inputs."""


class RowAveraging(Enum):
    ALL_ROWS = "all"
    LAST_ROW = "last"


def recovery_ratio(
    A: AttentionMap,
    retained: np.ndarray,
    rows: RowAveraging = RowAveraging.ALL_ROWS,
) -> float:
    """Fraction of attention mass the retained positions preserve.

    Mean over query rows of the retained (causally visible) mass; the
    ``rows`` option restricts to the final query row for sensitivity runs.
    Each row's mass is a left-to-right running sum of its retained entries
    in the caller's order. A ``BLOCK_ROWS``-row block gathers only the
    columns left of its end; the ones it skips are exact zeros above the
    diagonal, so the sums keep the bits of a gather over every column.
    """
    idx = np.asarray(retained, dtype=np.intp)
    if not idx.size:
        return 0.0
    # numpy wraps negative indices, so they are checked here.
    if idx.min() < 0 or idx.max() >= A.size:
        raise ProfilerError(
            f"retained positions {idx.min()}..{idx.max()} outside [0, {A.size})"
        )
    if rows is RowAveraging.LAST_ROW:
        return float(np.cumsum(A.matrix[-1, idx])[-1])
    per_row = np.zeros(A.size)
    for start in range(0, A.size, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, A.size)
        cols = idx[idx < stop]
        if cols.size:
            kept = np.take(A.matrix[start:stop], cols, axis=1)
            per_row[start:stop] = np.cumsum(kept, axis=1, out=kept)[:, -1]
    return float(per_row.mean())


def evaluate_policy(
    A: AttentionMap,
    ctx: PolicyContext,
    policy: CompressionPolicy,
    rows: RowAveraging = RowAveraging.ALL_ROWS,
) -> HeadDecision:
    """Recovery and cache cost of one policy on one head."""
    retained = retained_indices(policy, ctx)
    return HeadDecision(policy, recovery_ratio(A, retained, rows), retained.size)


@dataclass(frozen=True)
class ProfilerConfig:
    recovery_threshold: float = 0.95
    feasible: tuple[CompressionPolicy, ...] = field(
        default_factory=lambda: tuple(feasible_set())
    )
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
) -> HeadDecision:
    """The first policy in the nested family meeting the recovery threshold."""
    for policy in cfg.feasible:
        decision = evaluate_policy(A, ctx, policy, cfg.rows)
        # The full backstop is always accepted: its recovery is a float
        # mean of row sums and can land a hair below T=1.
        if decision.recovery >= cfg.recovery_threshold or policy.is_full:
            return decision


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


def profile_model(
    head_data: Mapping[tuple[int, int], tuple[AttentionMap, PolicyContext]],
    cfg: ProfilerConfig,
    grid: Iterable[tuple[int, int]] | None = None,
) -> HeadProfile:
    """Select a policy independently for every head of the model.

    Profiling happens exactly once per generation session; the resulting
    profile is immutable.
    """
    if grid is not None:
        for key in grid:
            if key not in head_data:
                raise ProfilerError(
                    f"missing profiling data for head (layer={key[0]}, head={key[1]})"
                )
    return HeadProfile(
        {key: select_policy(*head_data[key], cfg) for key in sorted(head_data)}
    )
