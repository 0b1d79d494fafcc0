from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_kv.attention import PromptStats, causal_attention
from adaptive_kv.engine import encode_prompt, prompt_head_data
from adaptive_kv.metrics import profile_rows
from adaptive_kv.model import Archetype
from adaptive_kv.policies import (
    CompressionPolicy,
    PolicyAtom,
    full_policy,
    parse_policy,
    retained_indices,
)
from adaptive_kv.profiler import (
    ProfilerConfig,
    ProfilerError,
    evaluate_policy,
    profile_model,
    recovery_ratio,
    select_policy,
)
from conftest import explicit_map, head_maps

PROMPT_LEN = 40


def prompt_data(model, prompt_len):
    """Every head's ``(stats, codes, prompt_len)`` on the model's prompt."""
    prompt = model.prompt_token_ids(prompt_len)
    return {
        key: (stats, codes, prompt_len)
        for key, _, _, stats, codes in prompt_head_data(model, prompt)
    }


@pytest.fixture(scope="module")
def head_data(mixed_model):
    return prompt_data(mixed_model, PROMPT_LEN)


def planted(model, archetype):
    return [key for key, plan in model.plan.items() if plan.archetype is archetype]


@pytest.mark.parametrize("P", [PROMPT_LEN, 256])
def test_planted_archetypes_get_their_policies_at_the_default_threshold(mixed_model, P):
    profile = profile_model(prompt_data(mixed_model, P), ProfilerConfig())
    for archetype, spec in [
        (Archetype.SPECIAL_DOMINANT, "special"),
        (Archetype.COLUMN_SPARSE, "special+punct+frequent(r_f=0.3)"),
        (Archetype.DIFFUSE, "full"),
    ]:
        for key in planted(mixed_model, archetype):
            assert profile[key].policy == parse_policy(spec), key


@pytest.mark.xfail(
    strict=True,
    reason="profiling scores local as one window at the prompt's end, which "
    "early rows cannot see, so local heads stay full (ROADMAP item 2)",
)
@pytest.mark.parametrize("P", [PROMPT_LEN, 256])
def test_planted_local_head_gets_a_local_policy(mixed_model, P):
    profile = profile_model(prompt_data(mixed_model, P), ProfilerConfig())
    for key in planted(mixed_model, Archetype.LOCAL_DOMINANT):
        assert PolicyAtom.LOCAL in profile[key].policy.atoms, key


@pytest.mark.parametrize("T", [0.5, 0.9, 0.95, 0.99])
def test_recovery_criterion_picks_first_policy_meeting_threshold(head_data, T):
    cfg = ProfilerConfig(recovery_threshold=T)
    for stats, codes, prompt_len in head_data.values():
        sets = [retained_indices(p, codes, stats.colsum, prompt_len) for p in cfg.feasible]
        recoveries = [recovery_ratio(stats, idx) for idx in sets]
        first = next(i for i, r in enumerate(recoveries) if r >= T)
        decision = select_policy(stats, codes, prompt_len, cfg)
        assert decision.policy == cfg.feasible[first]
        assert decision.recovery == recoveries[first]
        assert decision.cost_tokens == len(sets[first])


def test_profile_model_selects_every_head(head_data):
    cfg = ProfilerConfig()
    profile = profile_model(head_data, cfg)
    assert len(profile) == len(head_data)
    for key, data in head_data.items():
        assert profile[key] == select_policy(*data, cfg)


def test_streamed_encode_profile_equals_profile_over_all_maps(mixed_model, head_data):
    cfg = ProfilerConfig(recovery_threshold=0.9)
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    profile, _ = encode_prompt(mixed_model, prompt, cfg, diagnostics=False)
    assert profile_rows(profile) == profile_rows(profile_model(head_data, cfg))


def test_positions_outside_the_map_are_rejected(head_data):
    stats = head_data[(0, 0)][0]
    assert recovery_ratio(stats, np.arange(0)) == 0.0
    assert recovery_ratio(stats, np.arange(stats.size)) == pytest.approx(1.0)
    for bad in ([-1], [0, stats.size], [stats.size + 5]):
        with pytest.raises(ProfilerError, match="outside"):
            recovery_ratio(stats, np.array(bad))


def test_threshold_one_keeps_the_full_cache_on_every_head(head_data):
    # Several heads' full-cache recovery lands a hair below 1.0 here.
    profile = profile_model(head_data, ProfilerConfig(recovery_threshold=1.0))
    for _, decision in profile.items():
        assert decision.policy == full_policy()
        assert decision.cost_tokens == PROMPT_LEN


def reference_recovery(M, idx):
    """Recovery from an explicit map, kept as the bitwise reference."""
    if not len(idx):
        return 0.0
    colsum = np.zeros(M.shape[0])
    for row in M:
        colsum += row
    return float(colsum[idx].sum() / M.shape[0])


def test_recovery_ratio_is_bitwise_the_column_gather_sum(mixed_model):
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
                    recovery_ratio(stats, cols), reference_recovery(M, cols)
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
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), POLICIES)
def test_fixed_config_selects_what_evaluate_policy_gives(n, seed, policy):
    rng = np.random.default_rng(seed)
    stats = causal_attention(3.0 * rng.normal(size=(n, 4)), rng.normal(size=(n, 4)), 4)
    codes = rng.integers(0, 3, size=n).astype(np.int8)
    prompt_len = int(rng.integers(1, n + 1))
    fixed = select_policy(stats, codes, prompt_len, ProfilerConfig.fixed(policy))
    direct = evaluate_policy(stats, codes, prompt_len, policy)
    assert fixed.policy == direct.policy == policy
    assert float(fixed.recovery).hex() == float(direct.recovery).hex()
    assert fixed.cost_tokens == direct.cost_tokens
    assert np.array_equal(fixed.retained, direct.retained)


# Each head's policy, cost and recovery on the planted 4 x 4 plan at P=256
# under the default config, as the float64 engine profiled it. Float32 rows
# and logits must keep every policy and cost, and each recovery within 1e-6.
PLANTED_PROFILE_P256 = {
    (0, 0): ("special", 1, 0.9994719479270923),
    (0, 1): ("special", 1, 0.9994722728460528),
    (0, 2): ("special+punct+frequent(r_f=0.3)", 80, 0.9999360817846695),
    (0, 3): ("full", 256, 1.0),
    (1, 0): ("special", 1, 0.9994721376894062),
    (1, 1): ("special+punct+frequent(r_f=0.3)", 80, 0.9999360570472526),
    (1, 2): ("full", 256, 1.0),
    (1, 3): ("special", 1, 0.9994720156637303),
    (2, 0): ("special+punct+frequent(r_f=0.3)", 80, 0.9999360828429538),
    (2, 1): ("special", 1, 0.9994718566776389),
    (2, 2): ("full", 256, 1.0),
    (2, 3): ("special", 1, 0.9994721327502861),
    (3, 0): ("full", 256, 1.0),
    (3, 1): ("special", 1, 0.9994718571457367),
    (3, 2): ("special+punct+frequent(r_f=0.3)", 80, 0.9999360575302869),
    (3, 3): ("special", 1, 0.9994719383566141),
}


def test_planted_profile_keeps_the_float64_decisions(mixed_model):
    prompt = mixed_model.prompt_token_ids(256)
    profile, _ = encode_prompt(mixed_model, prompt, ProfilerConfig(), diagnostics=False)
    assert list(profile) == list(PLANTED_PROFILE_P256)
    for key, (policy, cost, recovery) in PLANTED_PROFILE_P256.items():
        decision = profile[key]
        assert (str(decision.policy), decision.cost_tokens) == (policy, cost), key
        assert abs(decision.recovery - recovery) <= 1e-6, key
