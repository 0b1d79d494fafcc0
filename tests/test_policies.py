from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_kv.policies import (
    CompressionPolicy,
    PolicyAtom,
    PolicyError,
    _budget,
    appended_counts,
    feasible_set,
    format_policy,
    full_policy,
    newest_kept,
    parse_policy,
    retained_indices,
    retained_mask,
    update_cumulative_scores,
)
from adaptive_kv.tokens import TokenClass

from conftest import make_codes, random_context


def ctx_of(classes, prompt_len=None, scores=None):
    """``(codes, scores, prompt_len)`` of ``classes``, as ``retained_indices``
    takes them; the prompt is every position and scores are 0 by default."""
    n = len(classes)
    scores = np.zeros(n) if scores is None else np.asarray(scores, float)
    return make_codes(classes), scores, n if prompt_len is None else prompt_len


S, P, O = TokenClass.SPECIAL, TokenClass.PUNCTUATION, TokenClass.OTHER


def atom_policy(atom, **kw):
    return CompressionPolicy(frozenset({atom}), **kw)


def union_policy(a: CompressionPolicy, b: CompressionPolicy) -> CompressionPolicy:
    """The hybrid of both policies' atoms; ``full`` absorbs any other."""
    if a.is_full or b.is_full:
        return full_policy()
    return CompressionPolicy(a.atoms | b.atoms, a.r_l, a.r_f)


def test_local_keeps_last_ceil_budget():
    ctx = ctx_of([O] * 10)
    got = retained_indices(atom_policy(PolicyAtom.LOCAL, r_l=0.3), *ctx)
    assert got.tolist() == [7, 8, 9]


def test_frequent_top_half_by_cumulative_score():
    ctx = ctx_of([O] * 4, scores=[0.9, 0.05, 0.03, 0.02])
    # brute force: sort all four scores, take top ceil(0.5 * 4) = 2
    expected = sorted(sorted(range(4), key=lambda j: (-ctx[1][j], j))[:2])
    got = retained_indices(atom_policy(PolicyAtom.FREQUENT, r_f=0.5), *ctx)
    assert got.tolist() == expected == [0, 1]


def test_frequent_ties_break_toward_lower_index():
    ctx = ctx_of([O] * 6, scores=[1.0, 2.0, 2.0, 2.0, 1.0, 1.0])
    got = retained_indices(atom_policy(PolicyAtom.FREQUENT, r_f=0.5), *ctx)
    assert got.tolist() == [1, 2, 3]
    # A tie at the budget cut goes to the lowest tied index.
    ctx = ctx_of([O] * 6, scores=[1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
    got = retained_indices(atom_policy(PolicyAtom.FREQUENT, r_f=0.5), *ctx)
    assert got.tolist() == [0, 1, 4]


def test_hybrid_union_of_atoms():
    classes = [S, O, O, O, O, P, O, O, O, O]
    ctx = ctx_of(classes)
    hybrid = CompressionPolicy(
        frozenset({PolicyAtom.SPECIAL, PolicyAtom.PUNCTUATION, PolicyAtom.LOCAL}),
        r_l=0.2,
    )
    assert retained_indices(hybrid, *ctx).tolist() == [0, 5, 8, 9]


def test_full_retains_everything():
    ctx = ctx_of([O] * 7)
    assert retained_indices(full_policy(), *ctx).tolist() == list(range(7))


def test_empty_class_sets_yield_empty_retained():
    ctx = ctx_of([O] * 5)
    assert len(retained_indices(atom_policy(PolicyAtom.SPECIAL), *ctx)) == 0


def test_full_superset_of_every_policy():
    rng = np.random.default_rng(12)
    policies = feasible_set() + [
        atom_policy(PolicyAtom.PUNCTUATION),
        atom_policy(PolicyAtom.LOCAL, r_l=0.7),
    ]
    for _ in range(100):
        ctx = random_context(rng)
        full = set(retained_indices(full_policy(), *ctx))
        for policy in policies:
            assert set(retained_indices(policy, *ctx)) <= full


def test_union_commutative_idempotent_at_retained_level():
    rng = np.random.default_rng(13)
    a = CompressionPolicy(frozenset({PolicyAtom.SPECIAL, PolicyAtom.LOCAL}))
    b = CompressionPolicy(frozenset({PolicyAtom.FREQUENT}))
    for _ in range(50):
        ctx = random_context(rng)
        ab = retained_indices(union_policy(a, b), *ctx)
        ba = retained_indices(union_policy(b, a), *ctx)
        aa = retained_indices(union_policy(a, a), *ctx)
        assert np.array_equal(ab, ba)
        assert np.array_equal(aa, retained_indices(a, *ctx))
        union = set(retained_indices(a, *ctx)) | set(retained_indices(b, *ctx))
        assert set(ab) == union


def test_candidates_restrict_selection_without_changing_budgets():
    scores = np.array([9, 8, 7, 6, 5, 4, 3, 2, 1, 0], dtype=float)
    codes = np.zeros(10, dtype=np.int8)
    policy = atom_policy(PolicyAtom.FREQUENT, r_f=0.3)
    everything = np.arange(10)
    unrestricted = retained_mask(policy, everything, codes, scores, 10, 10)
    assert everything[unrestricted].tolist() == [0, 1, 2]
    live = np.array([2, 5, 7, 9])
    restricted = retained_mask(policy, live, codes, scores[live], 10, 10)
    assert live[restricted].tolist() == [2, 5, 7]


def test_retained_mask_rejects_bad_candidates_and_live_scores():
    policy = atom_policy(PolicyAtom.FREQUENT)
    codes = np.zeros(4, dtype=np.int8)
    live = np.array([0, 2, 3])
    with pytest.raises(PolicyError, match="candidate position 3 >= current_len 3"):
        retained_mask(policy, live, codes, np.zeros(3), 3, 3)
    # Scores are aligned with the candidates, one per entry of ``live``.
    with pytest.raises(PolicyError, match=r"scores shape \(4,\) is not \(3,\)"):
        retained_mask(policy, live, codes, np.zeros(4), 4, 4)
    for bad in (-1.0, np.nan, np.inf):
        scores = np.array([1.0, bad, 2.0])
        with pytest.raises(PolicyError, match="finite and >= 0"):
            retained_mask(policy, live, codes, scores, 4, 4)
    # Per-head rows: row 0 has two candidates, then padding at position 2.
    rows = np.array([[0, 3, 2], [1, 2, 3]])
    with pytest.raises(PolicyError, match="candidate position 3 >= current_len 3"):
        retained_mask(policy, rows, codes, np.zeros((2, 3)), 3, 3, np.array([2, 3]))
    for bad in (-1.0, np.nan, np.inf):
        scores = np.array([[1.0, 0.0, bad], [0.0, 1.0, 1.0]])
        # Padding is not checked; candidates are.
        keep = retained_mask(policy, rows, codes, scores, 4, 4, np.array([2, 3]))
        assert keep[0, :2].any() and not keep[0, 2]
        with pytest.raises(PolicyError, match="finite and >= 0"):
            retained_mask(policy, rows, codes, scores, 4, 4, np.array([3, 3]))


MASK_POLICIES = [
    atom_policy(PolicyAtom.FREQUENT, r_f=0.2),
    atom_policy(PolicyAtom.FREQUENT, r_f=0.6),
    CompressionPolicy(frozenset({PolicyAtom.SPECIAL, PolicyAtom.FREQUENT}), r_f=0.3),
    feasible_set(r_l=0.25, r_f=0.25)[3],
    CompressionPolicy(frozenset({PolicyAtom.PUNCTUATION, PolicyAtom.LOCAL}), r_l=0.4),
    full_policy(),
]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from(MASK_POLICIES),
)
def test_each_row_of_a_padded_mask_is_its_one_row_mask(
    current_len, heads, seed, policy
):
    rng = np.random.default_rng(seed)
    prompt_len = int(rng.integers(1, current_len + 1))
    codes = rng.integers(0, 3, size=current_len).astype(np.int8)
    # Four score values, so ties are common.
    scores = rng.integers(0, 4, size=(heads, current_len)).astype(float)
    budget = _budget(policy.r_f, current_len)
    rows = [
        np.flatnonzero(rng.random(current_len) < rng.random()) for _ in range(heads)
    ]
    # Row 0 holds no more candidates than the frequent budget.
    rows[0] = rows[0][:budget]
    lengths = np.array([row.size for row in rows])
    # Padding is any position at all.
    live = rng.integers(0, current_len, size=(heads, int(lengths.max())))
    for g, row in enumerate(rows):
        live[g, : row.size] = row
    # Scores in slot order, beside their candidates; the padding's are any
    # value at all, since padding is never ranked.
    aligned = np.take_along_axis(scores, live, axis=1)
    for g, row in enumerate(rows):
        aligned[g, row.size :] = rng.choice([np.nan, -1.0, 9.0])
    keep = retained_mask(policy, live, codes, aligned, prompt_len, current_len, lengths)
    assert keep.shape == live.shape
    for g, row in enumerate(rows):
        one = retained_mask(policy, row, codes, scores[g, row], prompt_len, current_len)
        assert keep[g, : row.size].tolist() == one.tolist()
        assert not keep[g, row.size :].any()
        if policy.atoms == {PolicyAtom.FREQUENT}:
            # Highest scores first, the lower position first among ties.
            ranked = sorted(row.tolist(), key=lambda p: (-scores[g, p], p))
            assert row[one].tolist() == sorted(ranked[:budget])


APPEND_POLICIES = st.one_of(
    st.just(full_policy()),
    st.builds(
        lambda atoms, r_l, r_f: CompressionPolicy(frozenset(atoms), r_l=r_l, r_f=r_f),
        st.sets(
            st.sampled_from([a for a in PolicyAtom if a is not PolicyAtom.FULL]),
            min_size=1,
        ),
        st.sampled_from([0.05, 0.3, 1.0]),
        st.sampled_from([0.05, 0.3, 0.6, 1.0]),
    ),
)


@settings(max_examples=400, deadline=None)
@given(APPEND_POLICIES, st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_appended_counts_are_the_mask_counts_and_keep_every_older_row(
    policy, current_len, heads, seed
):
    """Where ``appended_counts`` says no older row can leave, the keep-mask of
    the grown rows keeps every older row and counts what it counts."""
    rng = np.random.default_rng(seed)
    prompt_len = int(rng.integers(1, current_len + 1))
    codes = rng.integers(0, 3, size=current_len).astype(np.int8)
    newest = newest_kept(policy)
    older = np.arange(current_len - 1)
    if PolicyAtom.FREQUENT not in policy.atoms and PolicyAtom.LOCAL not in policy.atoms:
        # A static group's rows are all of classes it keeps.
        older = older[newest[codes[older]]]
    # Half the time no head holds more older rows than the frequent budget.
    cap = _budget(policy.r_f, current_len) if rng.random() < 0.5 else older.size
    rows = [
        np.sort(rng.choice(older, int(rng.integers(0, min(cap, older.size) + 1)), False))
        for _ in range(heads)
    ]
    n = np.array([row.size for row in rows])
    width = int(n.max()) + 1
    # Padding and each incoming row sit at the newest position; the incoming
    # row scores 0, and four score values make ties common.
    live = np.full((heads, width), current_len - 1)
    scores = np.zeros((heads, width))
    for g, row in enumerate(rows):
        live[g, : row.size] = row
        scores[g, : row.size] = rng.integers(0, 4, row.size)
    grown = appended_counts(policy, newest, n, width - 1, codes[-1], current_len)
    keep = retained_mask(policy, live, codes, scores, prompt_len, current_len, n + 1)
    if PolicyAtom.FREQUENT not in policy.atoms and PolicyAtom.LOCAL not in policy.atoms:
        assert grown is not None
    if grown is not None:
        assert grown.tolist() == np.count_nonzero(keep, axis=1).tolist()
        for g, m in enumerate(n):
            assert keep[g, :m].all()


def test_memory_cost_examples():
    assert len(retained_indices(full_policy(), *ctx_of([O] * 512))) == 512
    ctx = ctx_of([S, S, O, S, O])
    assert len(retained_indices(atom_policy(PolicyAtom.SPECIAL), *ctx)) == 3


def test_nested_family_and_nondecreasing_cost():
    rng = np.random.default_rng(30)
    family = feasible_set(r_l=0.25, r_f=0.25)
    for _ in range(200):
        ctx = random_context(rng)
        sets = [set(retained_indices(p, *ctx)) for p in family]
        costs = [len(retained_indices(p, *ctx)) for p in family]
        for earlier, later in zip(sets, sets[1:]):
            assert earlier <= later
        assert costs == sorted(costs)


def test_hybrid_cost_at_least_each_atom():
    rng = np.random.default_rng(31)
    a = atom_policy(PolicyAtom.SPECIAL)
    b = atom_policy(PolicyAtom.LOCAL)
    for _ in range(50):
        ctx = random_context(rng)
        cost_union = len(retained_indices(union_policy(a, b), *ctx))
        costs = [len(retained_indices(p, *ctx)) for p in (a, b)]
        assert cost_union >= max(costs)


def test_exact_budget_counts():
    # dyadic ratios make ceil(r * n) exact in float
    rng = np.random.default_rng(32)
    for _ in range(200):
        codes, scores, prompt_len = random_context(rng)
        r_l = int(rng.integers(1, 17)) / 16.0
        r_f = int(rng.integers(1, 17)) / 16.0
        local = retained_indices(
            atom_policy(PolicyAtom.LOCAL, r_l=r_l), codes, scores, prompt_len
        )
        assert len(local) == min(math.ceil(r_l * prompt_len), len(scores))
        freq = retained_indices(
            atom_policy(PolicyAtom.FREQUENT, r_f=r_f), codes, scores, prompt_len
        )
        assert len(freq) == math.ceil(r_f * len(scores))


def test_feasible_set_default_is_nested_five_policy_family():
    family = feasible_set()
    assert len(family) == 5
    assert family[0].atoms == {PolicyAtom.SPECIAL}
    assert family[1].atoms == {PolicyAtom.SPECIAL, PolicyAtom.PUNCTUATION}
    assert family[2].atoms == {
        PolicyAtom.SPECIAL,
        PolicyAtom.PUNCTUATION,
        PolicyAtom.FREQUENT,
    }
    assert family[3].atoms == {
        PolicyAtom.SPECIAL,
        PolicyAtom.PUNCTUATION,
        PolicyAtom.FREQUENT,
        PolicyAtom.LOCAL,
    }
    assert family[4].is_full


def test_feasible_set_order_ablation():
    family = feasible_set(
        atom_order=(
            PolicyAtom.SPECIAL,
            PolicyAtom.FREQUENT,
            PolicyAtom.LOCAL,
            PolicyAtom.PUNCTUATION,
        )
    )
    assert [sorted(a.value for a in p.atoms) for p in family[:-1]] == [
        ["special"],
        ["frequent", "special"],
        ["frequent", "local", "special"],
        ["frequent", "local", "punct", "special"],
    ]
    assert family[-1].is_full


def test_feasible_set_drop_ablation():
    family = feasible_set(drop={PolicyAtom.FREQUENT})
    assert len(family) == 4
    assert all(PolicyAtom.FREQUENT not in p.atoms for p in family)
    # dropping the first atom shifts the base, as in the removal ablations
    no_special = feasible_set(drop={PolicyAtom.SPECIAL})
    assert no_special[0].atoms == {PolicyAtom.PUNCTUATION}


def test_update_scores_conserves_mass_when_all_retained():
    scores = np.array([0.3, 0.3, 0.2, 0.2])
    row = np.array([0.4, 0.3, 0.2, 0.1])
    out = update_cumulative_scores(scores, row, np.arange(4))
    assert out.shape == (5,)
    assert out.sum() == pytest.approx(1.0 + 1.0)
    assert out[-1] == 0.0
    # The input is left as it was.
    assert scores.tolist() == [0.3, 0.3, 0.2, 0.2]


def test_update_scores_empty_retained_appends_only():
    scores = np.array([1.0, 2.0, 3.0])
    out = update_cumulative_scores(scores, np.zeros(0), np.arange(0))
    assert out.tolist() == [1.0, 2.0, 3.0, 0.0]


def test_update_scores_two_steps_hand_summed():
    # three tokens, two decode steps; final scores are elementwise sums
    scores = np.array([0.5, 0.25, 0.25])
    r1 = np.array([0.6, 0.3, 0.1])
    scores = update_cumulative_scores(scores, r1, np.arange(3))
    r2 = np.array([0.5, 0.2, 0.2, 0.1])
    scores = update_cumulative_scores(scores, r2, np.arange(4))
    expected = [0.5 + 0.6 + 0.5, 0.25 + 0.3 + 0.2, 0.25 + 0.1 + 0.2, 0.0 + 0.1, 0.0]
    assert scores == pytest.approx(expected)


def test_update_scores_frozen_for_evicted_positions():
    scores = np.array([5.0, 1.0, 1.0, 1.0])
    out = update_cumulative_scores(scores, np.array([0.7, 0.3]), np.array([1, 3]))
    assert out.tolist() == [5.0, 1.7, 1.0, 1.3, 0.0]


def test_update_scores_length_mismatch():
    with pytest.raises(PolicyError, match="one score per retained"):
        update_cumulative_scores(np.zeros(3), np.zeros(3), np.array([0, 1]))


@pytest.mark.parametrize("retained", [[-1, 0], [1, 3]])
def test_update_scores_rejects_positions_out_of_range(retained):
    with pytest.raises(PolicyError, match=r"outside \[0, 3\)"):
        update_cumulative_scores(np.zeros(3), np.zeros(2), np.array(retained))


@pytest.mark.parametrize("length", [4, 6])
def test_retained_indices_rejects_codes_of_the_wrong_length(length):
    with pytest.raises(PolicyError, match=rf"codes has shape \({length},\), expected \(5,\)"):
        retained_indices(full_policy(), np.zeros(length, dtype=np.int8), np.zeros(5), 5)


@pytest.mark.parametrize("prompt_len", [0, -1, 6])
def test_retained_indices_rejects_a_prompt_len_outside_the_scores(prompt_len):
    with pytest.raises(PolicyError, match=rf"prompt_len {prompt_len} outside 1\.\.5"):
        retained_indices(full_policy(), np.zeros(5, dtype=np.int8), np.zeros(5), prompt_len)


def test_retained_indices_leaves_the_callers_scores_writeable_and_unchanged():
    scores = np.array([3.0, 0.0, 2.0, 1.0])
    policy = CompressionPolicy(frozenset({PolicyAtom.FREQUENT}), r_f=0.5)
    got = retained_indices(policy, np.zeros(4, dtype=np.int8), scores, 4)
    assert got.tolist() == [0, 2]
    assert scores.flags.writeable and scores.tolist() == [3.0, 0.0, 2.0, 1.0]
    assert not np.shares_memory(got, scores)


def test_policy_invariants():
    with pytest.raises(PolicyError, match="at least one atom"):
        CompressionPolicy(frozenset())
    with pytest.raises(PolicyError, match="full cannot be combined"):
        CompressionPolicy(frozenset({PolicyAtom.FULL, PolicyAtom.LOCAL}))
    with pytest.raises(PolicyError, match="r_l"):
        CompressionPolicy(frozenset({PolicyAtom.LOCAL}), r_l=0.0)
    with pytest.raises(PolicyError, match="r_f"):
        CompressionPolicy(frozenset({PolicyAtom.FREQUENT}), r_f=1.5)


def test_policy_string_round_trips():
    texts = [
        "full",
        "special",
        "special+punct",
        "special+punct+frequent(r_f=0.3)+local(r_l=0.3)",
        "frequent(r_f=0.15)",
        "local(r_l=0.5)",
    ]
    for text in texts:
        policy = parse_policy(text)
        assert format_policy(policy) == text
    # order-insensitive parse, canonical re-render
    assert format_policy(parse_policy("local(r_l=0.3)+special")) == (
        "special+local(r_l=0.3)"
    )


def test_policy_string_round_trips_random():
    rng = np.random.default_rng(44)
    atoms = [
        PolicyAtom.SPECIAL,
        PolicyAtom.PUNCTUATION,
        PolicyAtom.FREQUENT,
        PolicyAtom.LOCAL,
    ]
    for _ in range(100):
        chosen = [a for a in atoms if rng.random() < 0.5] or [PolicyAtom.SPECIAL]
        policy = CompressionPolicy(
            frozenset(chosen),
            r_l=round(float(rng.uniform(0.05, 1.0)), 3),
            r_f=round(float(rng.uniform(0.05, 1.0)), 3),
        )
        parsed = parse_policy(format_policy(policy))
        assert parsed.atoms == policy.atoms
        if PolicyAtom.LOCAL in policy.atoms:
            assert parsed.r_l == policy.r_l
        if PolicyAtom.FREQUENT in policy.atoms:
            assert parsed.r_f == policy.r_f


def test_parse_policy_errors():
    with pytest.raises(PolicyError, match="unknown policy atom"):
        parse_policy("special+average")
    with pytest.raises(PolicyError, match="bad ratio"):
        parse_policy("local(r_l=abc)")
    with pytest.raises(PolicyError, match="not valid"):
        parse_policy("special(r_f=0.3)")
