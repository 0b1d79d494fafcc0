from __future__ import annotations

import numpy as np
import pytest

from adaptive_kv.attention import causal_attention
from adaptive_kv.engine import encode_prompt, prompt_head_data
from adaptive_kv.policies import full_policy, retained_indices
from adaptive_kv.profiler import (
    HeadProfile,
    ProfilerConfig,
    ProfilerError,
    RowAveraging,
    profile_model,
    recovery_ratio,
    select_policy,
)

PROMPT_LEN = 40


@pytest.fixture(scope="module")
def head_data(mixed_model):
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    return {key: (A, ctx) for key, _, _, A, ctx in prompt_head_data(mixed_model, prompt)}


@pytest.mark.parametrize("rows", list(RowAveraging))
@pytest.mark.parametrize("T", [0.5, 0.9, 0.95, 0.99])
def test_recovery_criterion_picks_first_policy_meeting_threshold(head_data, T, rows):
    cfg = ProfilerConfig(recovery_threshold=T, rows=rows)
    for A, ctx in head_data.values():
        sets = [retained_indices(p, ctx) for p in cfg.feasible]
        recoveries = [recovery_ratio(A, idx, rows) for idx in sets]
        first = next(i for i, r in enumerate(recoveries) if r >= T)
        decision = select_policy(A, ctx, cfg)
        assert decision.policy == cfg.feasible[first]
        assert decision.recovery == recoveries[first]
        assert decision.cost_tokens == len(sets[first])


def test_profile_model_selects_every_head_and_checks_the_grid(head_data):
    cfg = ProfilerConfig()
    profile = profile_model(head_data, cfg, grid=sorted(head_data))
    assert len(profile) == len(head_data)
    for key, (A, ctx) in head_data.items():
        assert profile[key] == select_policy(A, ctx, cfg)
    with pytest.raises(ProfilerError, match="missing profiling data"):
        profile_model(head_data, cfg, grid=[(9, 9)])


@pytest.mark.parametrize("rows", list(RowAveraging))
def test_streamed_encode_profile_equals_profile_over_all_maps(
    mixed_model, head_data, rows
):
    cfg = ProfilerConfig(recovery_threshold=0.9, rows=rows)
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    profile, _ = encode_prompt(mixed_model, prompt, cfg, diagnostics=False)
    assert profile.to_csv() == profile_model(head_data, cfg).to_csv()


def test_head_profile_csv_round_trips(head_data):
    for cfg in (ProfilerConfig(), ProfilerConfig(recovery_threshold=0.5)):
        profile = profile_model(head_data, cfg)
        text = profile.to_csv()
        again = HeadProfile.from_csv(text)
        assert again.decisions == profile.decisions
        assert again.to_csv() == text
    with pytest.raises(ProfilerError, match="bad profile CSV header"):
        HeadProfile.from_csv("layer,head,policy\n")


def test_positions_outside_the_map_are_rejected(head_data):
    A, _ = head_data[(0, 0)]
    assert recovery_ratio(A, np.arange(0)) == 0.0
    assert recovery_ratio(A, np.arange(A.size)) == pytest.approx(1.0)
    for bad in ([-1], [0, A.size], [A.size + 5]):
        with pytest.raises(ProfilerError, match="outside"):
            recovery_ratio(A, np.array(bad))


@pytest.mark.parametrize("rows", list(RowAveraging))
def test_threshold_one_keeps_the_full_cache_on_every_head(head_data, rows):
    # Several heads' full-cache recovery lands a hair below 1.0 here.
    profile = profile_model(head_data, ProfilerConfig(recovery_threshold=1.0, rows=rows))
    for _, decision in profile.items():
        assert decision.policy == full_policy()
        assert decision.cost_tokens == PROMPT_LEN


def reference_recovery(A, idx, rows):
    """Column-gather recovery, kept as the bitwise reference."""
    if not len(idx):
        return 0.0
    per_row = A.matrix[:, idx].sum(axis=1)
    return float(per_row[-1] if rows is RowAveraging.LAST_ROW else per_row.mean())


@pytest.mark.parametrize("rows", list(RowAveraging))
def test_recovery_ratio_is_bitwise_the_column_gather_sum(head_data, rows):
    rng = np.random.default_rng(17)
    big = [
        causal_attention(rng.normal(size=(n, 8)), rng.normal(size=(n, 8)), 8)
        for n in (300, 1024)
    ]
    maps = [A for A, _ in head_data.values()] + big
    for A in maps:
        sizes = [0, 1, 2, 8, 9, A.size // 3, A.size - 1, A.size]
        for k in sizes:
            idx = rng.choice(A.size, size=k, replace=False)
            # Sorted, in the caller's order, and with repeats.
            for cols in (np.sort(idx), idx, rng.choice(A.size, size=k)):
                assert np.array_equal(
                    recovery_ratio(A, cols, rows), reference_recovery(A, cols, rows)
                )
