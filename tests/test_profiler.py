from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_kv.attention import PromptStats, causal_attention
from adaptive_kv.engine import encode_prompt, prompt_head_data
from adaptive_kv.policies import (
    CompressionPolicy,
    PolicyAtom,
    PolicyContext,
    full_policy,
    retained_indices,
)
from adaptive_kv.profiler import (
    ProfilerConfig,
    ProfilerError,
    RowAveraging,
    evaluate_policy,
    profile_model,
    recovery_ratio,
    select_policy,
)
from conftest import explicit_map, head_maps

PROMPT_LEN = 40


@pytest.fixture(scope="module")
def head_data(mixed_model):
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    return {
        key: (stats, ctx) for key, _, _, stats, ctx in prompt_head_data(mixed_model, prompt)
    }


@pytest.mark.parametrize("rows", list(RowAveraging))
@pytest.mark.parametrize("T", [0.5, 0.9, 0.95, 0.99])
def test_recovery_criterion_picks_first_policy_meeting_threshold(head_data, T, rows):
    cfg = ProfilerConfig(recovery_threshold=T, rows=rows)
    for stats, ctx in head_data.values():
        sets = [retained_indices(p, ctx) for p in cfg.feasible]
        recoveries = [recovery_ratio(stats, idx, rows) for idx in sets]
        first = next(i for i, r in enumerate(recoveries) if r >= T)
        decision = select_policy(stats, ctx, cfg)
        assert decision.policy == cfg.feasible[first]
        assert decision.recovery == recoveries[first]
        assert decision.cost_tokens == len(sets[first])


def test_profile_model_selects_every_head(head_data):
    cfg = ProfilerConfig()
    profile = profile_model(head_data, cfg)
    assert len(profile) == len(head_data)
    for key, (stats, ctx) in head_data.items():
        assert profile[key] == select_policy(stats, ctx, cfg)


@pytest.mark.parametrize("rows", list(RowAveraging))
def test_streamed_encode_profile_equals_profile_over_all_maps(
    mixed_model, head_data, rows
):
    cfg = ProfilerConfig(recovery_threshold=0.9, rows=rows)
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    profile, _ = encode_prompt(mixed_model, prompt, cfg, diagnostics=False)
    assert profile.to_csv() == profile_model(head_data, cfg).to_csv()


def test_positions_outside_the_map_are_rejected(head_data):
    stats, _ = head_data[(0, 0)]
    assert recovery_ratio(stats, np.arange(0)) == 0.0
    assert recovery_ratio(stats, np.arange(stats.size)) == pytest.approx(1.0)
    for bad in ([-1], [0, stats.size], [stats.size + 5]):
        with pytest.raises(ProfilerError, match="outside"):
            recovery_ratio(stats, np.array(bad))


@pytest.mark.parametrize("rows", list(RowAveraging))
def test_threshold_one_keeps_the_full_cache_on_every_head(head_data, rows):
    # Several heads' full-cache recovery lands a hair below 1.0 here.
    profile = profile_model(head_data, ProfilerConfig(recovery_threshold=1.0, rows=rows))
    for _, decision in profile.items():
        assert decision.policy == full_policy()
        assert decision.cost_tokens == PROMPT_LEN


def reference_recovery(M, idx, rows):
    """Recovery from an explicit map, kept as the bitwise reference."""
    if not len(idx):
        return 0.0
    if rows is RowAveraging.LAST_ROW:
        # ``M[:, idx]`` is in F order, so its row sums run left to right.
        return float(M[:, idx].sum(axis=1)[-1])
    colsum = np.zeros(M.shape[0])
    for row in M:
        colsum += row
    return float(colsum[idx].sum() / M.shape[0])


@pytest.mark.parametrize("rows", list(RowAveraging))
def test_recovery_ratio_is_bitwise_the_column_gather_sum(mixed_model, rows):
    rng = np.random.default_rng(17)
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    cases = [M for M, _ in head_maps(mixed_model, prompt).values()]
    cases = [(PromptStats(M.sum(axis=0), M[-1]), M) for M in cases]
    # Dyadic entries make every product exact, so the blocked pass and
    # the explicit map share their bits at any size.
    for n in (300, 1024):
        Q, K = (rng.integers(-8, 9, size=(n, 8)) / 4.0 for _ in range(2))
        cases.append((causal_attention(Q, K, 8), explicit_map(Q, K)))
    for stats, M in cases:
        n = stats.size
        for k in [0, 1, 2, 8, 9, n // 3, n - 1, n]:
            idx = rng.choice(n, size=k, replace=False)
            # Sorted, in the caller's order, and with repeats.
            for cols in (np.sort(idx), idx, rng.choice(n, size=k)):
                assert np.array_equal(
                    recovery_ratio(stats, cols, rows), reference_recovery(M, cols, rows)
                )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_all_rows_recovery_is_the_mean_retained_mass_per_row(n, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    Q, K = 2.0 * rng.normal(size=(n, d)), rng.normal(size=(n, d))
    M = explicit_map(Q, K)
    idx = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    retained = np.zeros(n, dtype=bool)
    retained[idx] = True
    # Row i's retained mass: its entries at retained keys j <= i.
    per_row = np.where(retained & np.tri(n, dtype=bool), M, 0.0).sum(axis=1)
    got = recovery_ratio(causal_attention(Q, K, d), idx)
    assert abs(got - per_row.mean()) <= 1e-12


RATIOS = st.floats(0.05, 1.0)
POLICIES = st.one_of(
    st.just(full_policy()),
    st.builds(
        lambda atoms, r_l, r_f: CompressionPolicy(frozenset(atoms), r_l=r_l, r_f=r_f),
        st.sets(
            st.sampled_from([a for a in PolicyAtom if a is not PolicyAtom.FULL]),
            min_size=1,
        ),
        RATIOS,
        RATIOS,
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    POLICIES,
    st.sampled_from(list(RowAveraging)),
)
def test_fixed_config_selects_what_evaluate_policy_gives(n, seed, policy, rows):
    rng = np.random.default_rng(seed)
    stats = causal_attention(3.0 * rng.normal(size=(n, 4)), rng.normal(size=(n, 4)), 4)
    ctx = PolicyContext(
        codes=rng.integers(0, 3, size=n).astype(np.int8),
        prompt_len=int(rng.integers(1, n + 1)),
        current_len=n,
        cumulative_scores=rng.uniform(0.0, 5.0, size=n),
    )
    cfg = replace(ProfilerConfig.fixed(policy), rows=rows)
    fixed = select_policy(stats, ctx, cfg)
    direct = evaluate_policy(stats, ctx, policy, rows)
    assert fixed.policy == direct.policy == policy
    assert float(fixed.recovery).hex() == float(direct.recovery).hex()
    assert fixed.cost_tokens == direct.cost_tokens
    assert np.array_equal(fixed.retained, direct.retained)
