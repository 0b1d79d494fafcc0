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

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .attention import PromptStats
from .policies import CompressionPolicy, feasible_set, full_policy, retained_indices


class ProfilerError(ValueError):
    """Raised on invalid profiler configuration or inputs."""


class RowAveraging(Enum):
    ALL_ROWS = "all"
    LAST_ROW = "last"


def recovery_ratio(
    stats: PromptStats,
    retained: np.ndarray,
    rows: RowAveraging = RowAveraging.ALL_ROWS,
) -> float:
    """Fraction of attention mass the retained positions preserve.

    Mean over query rows of the retained (causally visible) mass; the
    ``rows`` option restricts to the final query row for sensitivity runs.
    Summing over rows first, the mean is the retained columns' mass over
    P. The last row's mass is a left-to-right running sum of its retained
    entries in the caller's order.
    """
    idx = np.asarray(retained, dtype=np.intp)
    if not idx.size:
        return 0.0
    # numpy wraps negative indices, so they are checked here.
    if idx.min() < 0 or idx.max() >= stats.size:
        raise ProfilerError(
            f"retained positions {idx.min()}..{idx.max()} outside [0, {stats.size})"
        )
    if rows is RowAveraging.LAST_ROW:
        return float(np.cumsum(stats.last_row[idx])[-1])
    return float(stats.colsum[idx].sum() / stats.size)


def evaluate_policy(
    stats: PromptStats,
    codes: np.ndarray,
    prompt_len: int,
    policy: CompressionPolicy,
    rows: RowAveraging = RowAveraging.ALL_ROWS,
) -> HeadDecision:
    """Recovery, cache cost and retained positions of one policy on one head,
    whose positions have class ``codes`` and the first ``prompt_len`` of
    which are the prompt; the column sums are the frequency signal."""
    retained = retained_indices(policy, codes, stats.colsum, prompt_len)
    retained.setflags(write=False)
    return HeadDecision(
        policy, recovery_ratio(stats, retained, rows), retained.size, retained
    )


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

    @classmethod
    def fixed(cls, policy: CompressionPolicy) -> "ProfilerConfig":
        """A family of one: every head gets ``policy`` (an H2O-style baseline).

        Recovery is never below 0, so at T=0 the first candidate always
        qualifies and ``select_policy`` returns ``evaluate_policy``'s
        decision for ``policy``.
        """
        return cls(recovery_threshold=0.0, feasible=(policy, full_policy()))


def select_policy(
    stats: PromptStats, codes: np.ndarray, prompt_len: int, cfg: ProfilerConfig
) -> HeadDecision:
    """The first policy in the nested family meeting the recovery threshold."""
    for policy in cfg.feasible:
        decision = evaluate_policy(stats, codes, prompt_len, policy, cfg.rows)
        # The full backstop is always accepted: its recovery is a float
        # sum of column sums over P and can land a hair below T=1.
        if decision.recovery >= cfg.recovery_threshold or policy.is_full:
            return decision


@dataclass(frozen=True)
class HeadDecision:
    policy: CompressionPolicy
    recovery: float
    cost_tokens: int
    # The ascending positions the policy keeps, read-only.
    retained: np.ndarray = field(compare=False, repr=False)


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


def profile_model(
    head_data: Mapping[tuple[int, int], tuple[PromptStats, np.ndarray, int]],
    cfg: ProfilerConfig,
) -> HeadProfile:
    """Select a policy independently for every head of the model, from each
    head's ``(stats, codes, prompt_len)``, as ``select_policy`` takes them.

    Profiling happens exactly once per generation session; the resulting
    profile is immutable.
    """
    return HeadProfile(
        {key: select_policy(*head_data[key], cfg) for key in sorted(head_data)}
    )
