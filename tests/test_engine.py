from __future__ import annotations

import dataclasses
import hashlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from adaptive_kv import engine
from adaptive_kv.engine import (
    CompressedCache,
    EngineError,
    GenerationConfig,
    HeadGroup,
    Nucleus,
    Sampler,
    encode_prompt,
    generate,
    generate_fixed_baseline,
    generate_step,
    prompt_head_data,
    reference_generate,
)
from adaptive_kv.policies import (
    CompressionPolicy,
    PolicyAtom,
    _budget,
    feasible_set,
    full_policy,
    retained_indices,
    retained_mask,
    update_cumulative_scores,
)
from adaptive_kv.model import (
    Archetype,
    ModelConfig,
    ModelError,
    SyntheticModel,
    cycling_plan,
)
from adaptive_kv.profiler import ProfilerConfig
from adaptive_kv.tokens import TokenClass, VocabMetadata, classify_tokens
from adaptive_kv.trace import TraceBlock, TraceModel, record_trace

from conftest import make_codes

PROMPT_LEN = 24
# Long enough for the full policy's buffers to grow twice: once on the
# first append and again one chunk later.
STEPS = 80
GOLDEN_PROMPT = 40
GOLDEN_STEPS = 80


def reference_atom_indices(atom, policy, codes, scores, prompt_len, candidates):
    """List-based retained positions of one atom, kept as the reference."""
    current_len = len(scores)
    universe = range(current_len) if candidates is None else candidates
    if atom is PolicyAtom.FULL:
        return list(universe)
    if atom in (PolicyAtom.SPECIAL, PolicyAtom.PUNCTUATION):
        klass = (
            TokenClass.SPECIAL if atom is PolicyAtom.SPECIAL else TokenClass.PUNCTUATION
        )
        return [p for p in universe if codes[p] == klass]
    if atom is PolicyAtom.LOCAL:
        window_start = current_len - _budget(policy.r_l, prompt_len)
        return [p for p in universe if p >= window_start]
    if atom is PolicyAtom.FREQUENT:
        budget = _budget(policy.r_f, current_len)
        ranked = sorted(universe, key=lambda p: (-scores[p], p))
        return ranked[:budget]
    raise AssertionError(atom)


def reference_retained(policy, codes, scores, prompt_len, candidates=None) -> list[int]:
    """Positions below ``len(scores)`` the policy keeps, among ``candidates``
    if given, from one list-based rule per atom."""
    cand = None if candidates is None else sorted({int(p) for p in candidates})
    retained: set[int] = set()
    for atom in policy.atoms:
        retained.update(
            reference_atom_indices(atom, policy, codes, scores, prompt_len, cand)
        )
    return sorted(retained)


class Rows:
    """Memoised model rows by (layer, head, position, class), cast to float32
    as the engine stores them."""

    def __init__(self, model, prompt_len):
        self.model = model
        self.prompt_len = prompt_len
        self._rows = {}

    def __call__(self, layer, head, pos, klass):
        key = (layer, head, pos, klass)
        if key not in self._rows:
            m = self.model
            self._rows[key] = tuple(
                row.astype(np.float32)
                for row in (
                    m.k_row(layer, head, pos, klass, self.prompt_len),
                    m.v_row(layer, head, pos),
                    m.q_row(layer, head, pos, self.prompt_len),
                )
            )
        return self._rows[key]


def attend(K: np.ndarray, q: np.ndarray) -> np.ndarray:
    """A decode attend's weights under the engine's dtype contract: float32
    logits and exponentials, float64 quotients over their float64 sum."""
    logits = (K @ q) / np.float32(np.sqrt(q.size))
    exp = np.exp(logits - logits.max())
    return exp / exp.sum(dtype=np.float64)


def head_slots(cache):
    """Each head's group and its row in the group, by (layer, head) key."""
    return {
        divmod(int(slot), cache.grid[1]): (group, g)
        for group in cache.groups
        for g, slot in enumerate(group.slots)
    }


def live_positions(cache) -> dict:
    """Each head's live positions, by key in head_grid() order."""
    return {key: group.live(g) for key, (group, g) in sorted(head_slots(cache).items())}


def mixed_groups_config() -> ProfilerConfig:
    """Profiles ``mixed_model`` into full, special, special+local and frequent heads."""
    S, F, L = PolicyAtom.SPECIAL, PolicyAtom.FREQUENT, PolicyAtom.LOCAL
    feasible = (
        CompressionPolicy(frozenset({S})),
        CompressionPolicy(frozenset({F})),
        CompressionPolicy(frozenset({S, L}), r_l=0.9),
        full_policy(),
    )
    return ProfilerConfig(recovery_threshold=0.9, feasible=feasible)


MIXED_GROUP_POLICIES = {
    "special", "frequent(r_f=0.3)", "special+local(r_l=0.9)", "full"
}


def check_group_layout(cache, grid):
    """Every head sits in one group, one group per distinct policy, and
    each head has its own live count."""
    slots = head_slots(cache)
    assert sorted(slots) == grid and len(slots) == len(grid)
    policies = [group.policy for group in cache.groups]
    for group in cache.groups:
        heads = len(group.slots)
        assert policies.count(group.policy) == 1
        assert group.n.shape == (heads,)
        assert group.pos.shape == group.K.shape[:2]
        if PolicyAtom.FREQUENT in group.policy.atoms:
            assert group.scores is not None and group.scores.shape[0] == heads
        else:
            # Without scores, every head keeps the same retained set.
            assert group.scores is None
            for g in range(heads):
                assert np.array_equal(group.live(g), group.live(0))
        assert group.K.shape[0] == group.V.shape[0] == heads
        assert group.outputs.shape == (heads, group.K.shape[2])


# A local window plus frequent evicts rows mid-buffer at ragged counts, so
# compaction shifts runs of kept rows.
WINDOW_FREQUENT = CompressionPolicy(
    frozenset({PolicyAtom.FREQUENT, PolicyAtom.LOCAL}), r_l=0.5, r_f=0.4
)


# Over the first steps, this frequent budget equals the live count, so
# only the local window keeps each new row.
BUDGET_AT_COUNT = CompressionPolicy(
    frozenset({PolicyAtom.FREQUENT, PolicyAtom.LOCAL}), r_l=0.1, r_f=0.96
)


# This policy sometimes evicts a row followed by exactly one kept row, so
# compaction moves a single row.
SINGLE_ROW_MOVE = CompressionPolicy(
    frozenset({PolicyAtom.FREQUENT, PolicyAtom.LOCAL}), r_l=0.5, r_f=0.1
)


# ``None`` profiles ``mixed_model`` so that groups of every kind coexist in
# one cache.
@pytest.mark.parametrize(
    "policy",
    feasible_set()
    + [feasible_set(r_f=0.4)[2], WINDOW_FREQUENT, BUDGET_AT_COUNT, SINGLE_ROW_MOVE, None],
    ids=lambda p: "mixed-groups" if p is None else str(p),
)
def test_cache_matches_list_reference_every_step(request, policy):
    if policy is None:
        model = request.getfixturevalue("mixed_model")
        prompt_len = GOLDEN_PROMPT
        prompt = model.prompt_token_ids(prompt_len)
        profile, cache = encode_prompt(model, prompt, mixed_groups_config())
        assert {str(d.policy) for _, d in profile.items()} == MIXED_GROUP_POLICIES
    else:
        model = request.getfixturevalue("small_model")
        prompt_len = PROMPT_LEN
        prompt = model.prompt_token_ids(prompt_len)
        profile, cache = encode_prompt(model, prompt, ProfilerConfig.fixed(policy))
    grid = model.config.head_grid()
    check_group_layout(cache, grid)
    ref_scores = {
        key: stats.colsum for key, _, _, stats, _ in prompt_head_data(model, prompt)
    }
    rows = Rows(model, prompt_len)
    codes = make_codes([a.klass for a in classify_tokens(prompt, model.vocab)])
    for key, (group, g) in head_slots(cache).items():
        assert group.policy == profile[key].policy
        expected = reference_retained(group.policy, codes, ref_scores[key], prompt_len)
        assert group.live(g).tolist() == expected
        if group.scores is not None:
            live = group.live(g)
            assert np.array_equal(group.scores[g, : live.size], ref_scores[key][live])

    # Each position's class, from the tokens the session has seen.
    classes = [a.klass for a in classify_tokens(prompt, model.vocab)]
    growths = shifts = ragged = single_moves = 0
    token = None
    for _ in range(STEPS):
        slots = head_slots(cache)
        previous = {key: group.live(g).tolist() for key, (group, g) in slots.items()}
        capacity = {key: group.K.shape[1] for key, (group, _) in slots.items()}
        if token is not None:
            classes.append(model.vocab.classify_id(token))
        token, cache = generate_step(model, cache, token)
        check_group_layout(cache, grid)
        codes = make_codes(classes)
        assert np.array_equal(cache.codes[: cache.seq_len], codes)
        if cache.seq_len == prompt_len:
            continue
        pos = cache.seq_len - 1
        recoveries = []
        ragged += any(len(set(group.n.tolist())) > 1 for group in cache.groups)
        for key in grid:
            layer, head = key
            group, g = head_slots(cache)[key]
            policy = group.policy
            growths += group.K.shape[1] != capacity[key]
            attended = previous[key] + [pos]
            K = np.vstack([rows(layer, head, p, classes[p])[0] for p in attended])
            q = rows(layer, head, pos, classes[pos])[2]
            weights = attend(K, q)
            ref_scores[key] = update_cumulative_scores(
                ref_scores[key], weights[:-1], np.array(previous[key], dtype=np.intp)
            )
            live = group.live(g).tolist()
            assert live == reference_retained(
                policy, codes, ref_scores[key], prompt_len, attended
            )
            # A row evicted below a kept one: compaction shifted the rows after it.
            shifts += any(p < live[-1] for p in set(previous[key]) - set(live))
            # A lone kept row after an eviction: compaction moved a single row.
            kept = [p in live for p in attended]
            if False in kept:
                after = kept[kept.index(False) :]
                runs = [len(list(run)) for k, run in itertools.groupby(after) if k]
                single_moves += runs.count(1)
            live_rows = [rows(layer, head, p, classes[p]) for p in live]
            n = group.n[g]
            assert np.array_equal(group.K[g, :n], np.array([r[0] for r in live_rows]))
            assert np.array_equal(group.V[g, :n], np.array([r[1] for r in live_rows]))
            if PolicyAtom.FREQUENT in policy.atoms:
                # Scores sit in slot order, beside their rows.
                assert np.array_equal(group.scores[g, :n], ref_scores[key][live])
            history = np.vstack(
                [rows(layer, head, p, classes[p])[0] for p in range(pos + 1)]
            )
            full_weights = attend(history, q)
            recoveries.append(float(full_weights[attended].sum()))
        assert cache.last_record.mean_recovery == float(np.mean(recoveries))
    assert growths >= 1
    if policy is WINDOW_FREQUENT:
        assert shifts >= STEPS // 2 and ragged >= STEPS // 2
    if policy is SINGLE_ROW_MOVE:
        assert single_moves >= 1


def one_head_groups(group):
    """A copy of ``group`` as one group per head."""
    rows = ("K", "V", "pos", "n", "outputs", "recovery", "scores", "shadow")
    return [
        HeadGroup(
            slots=group.slots[g : g + 1].copy(),
            policy=group.policy,
            **{name: getattr(group, name)[g : g + 1].copy() for name in rows},
        )
        for g in range(len(group.slots))
    ]


def test_unequal_counts_decode_as_one_head_groups(mixed_model):
    """A group whose heads hold different counts has the bits of one group
    per head, each attending over only its own rows."""
    # A budget of one or two rows makes each head's top positions overlap
    # the specials that decoding emits differently.
    policy = CompressionPolicy(
        frozenset({PolicyAtom.SPECIAL, PolicyAtom.FREQUENT}), r_f=0.02
    )
    prompt = mixed_model.prompt_token_ids(GOLDEN_PROMPT)
    _, cache = encode_prompt(mixed_model, prompt, ProfilerConfig.fixed(policy))
    [group] = cache.groups
    split = CompressedCache(
        prompt_len=cache.prompt_len,
        seq_len=cache.seq_len,
        codes=cache.codes.copy(),
        groups=one_head_groups(group),
        grid=cache.grid,
        profile=cache.profile,
        diagnostics=True,
    )
    unequal = 0
    token = split_token = None
    for _ in range(STEPS):
        unequal += len(set(group.n.tolist())) > 1
        token, cache = generate_step(mixed_model, cache, token)
        split_token, split = generate_step(mixed_model, split, split_token)
        assert token == split_token
        assert np.array_equal(cache.outputs(), split.outputs())
        assert np.array_equal(cache.recoveries(), split.recoveries())
        assert cache.head_retained() == split.head_retained()
        singles = head_slots(split)
        for key, (_, g) in head_slots(cache).items():
            single, _ = singles[key]
            n = group.n[g]
            assert np.array_equal(group.K[g, :n], single.K[0, :n])
            assert np.array_equal(group.V[g, :n], single.V[0, :n])
            assert np.array_equal(group.live(g), single.live(0))
            assert np.array_equal(group.scores[g, :n], single.scores[0, :n])
    assert unequal >= STEPS // 2


def test_ragged_frequent_group_matches_one_head_groups_on_fixed_rows():
    """A frequent group whose heads start with different counts, fed the same
    rows as one group per head, keeps the bits of those groups at every step.

    The counts differ by construction: each head keeps every special its own
    live set holds, and the head that starts below the budget grows."""
    rng = np.random.default_rng(20)
    layers, heads, d, prompt_len, steps = 2, 2, 8, 40, 30
    keys = ((0, 1), (1, 0), (1, 1))
    slots = np.array([layer * heads + head for layer, head in keys])
    policy = CompressionPolicy(
        frozenset({PolicyAtom.SPECIAL, PolicyAtom.FREQUENT}), r_f=0.2
    )
    codes = rng.choice(np.array([0, 2, 2, 2], dtype=np.int8), prompt_len + steps)
    # Rows are float32 and scores float64, as the engine stores them.
    shadow = rng.standard_normal((len(keys), prompt_len + steps, d), np.float32)
    live = [np.sort(rng.choice(prompt_len, m, replace=False)) for m in (3, 11, 24)]
    width = max(idx.size for idx in live) + steps
    buffers = {name: np.zeros((len(keys), width) + tail, dtype)
               for name, tail, dtype in (("K", (d,), np.float32), ("V", (d,), np.float32),
                                         ("scores", (), np.float64))}
    pos = np.zeros((len(keys), width), dtype=np.intp)
    for g, idx in enumerate(live):
        buffers["K"][g, : idx.size] = shadow[g, idx]
        buffers["V"][g, : idx.size] = rng.standard_normal((idx.size, d), np.float32)
        buffers["scores"][g, : idx.size] = rng.uniform(0.0, 3.0, idx.size)
        pos[g, : idx.size] = idx
    group = HeadGroup(
        slots=slots, policy=policy, pos=pos, n=np.array([idx.size for idx in live]),
        outputs=np.zeros((len(keys), d)), recovery=np.zeros(len(keys)), shadow=shadow,
        **buffers,
    )
    singles = one_head_groups(group)
    ragged = 0
    for at in range(prompt_len, prompt_len + steps):
        new_rows = rng.standard_normal((3, layers, heads, d), np.float32).reshape(3, -1, d)
        for g in [group, *singles]:
            g.advance(new_rows, at, prompt_len, codes, diagnostics=True)
        ragged += len(set(group.n.tolist())) > 1
        for g, single in enumerate(singles):
            n = group.n[g]
            assert single.n.tolist() == [n]
            assert np.array_equal(group.live(g), single.live(0))
            assert np.array_equal(group.K[g, :n], single.K[0, :n])
            assert np.array_equal(group.V[g, :n], single.V[0, :n])
            assert np.array_equal(group.scores[g, :n], single.scores[0, :n])
            assert group.outputs[g].tobytes() == single.outputs[0].tobytes()
            assert group.recovery[g].tobytes() == single.recovery[0].tobytes()
            # Each head appended its own slot's row of the step.
            if group.live(g)[-1] == at:
                assert np.array_equal(group.K[g, n - 1], new_rows[0, slots[g]])
    assert ragged == steps


@pytest.mark.parametrize(
    "policy",
    [
        CompressionPolicy(frozenset({PolicyAtom.SPECIAL})),
        CompressionPolicy(frozenset({PolicyAtom.SPECIAL, PolicyAtom.PUNCTUATION})),
        # The budget covers every row, so no row ever ranks out.
        CompressionPolicy(frozenset({PolicyAtom.FREQUENT}), r_f=1.0),
    ],
    ids=str,
)
def test_group_that_cannot_evict_appends_without_a_keep_mask(
    small_model, monkeypatch, policy
):
    """A group of static atoms, or one whose frequent budget covers every
    row, keeps every old row and decides only the new one, with no keep-mask."""
    calls = []

    def counted(*args):
        calls.append(args)
        return retained_mask(*args)

    monkeypatch.setattr(engine, "retained_mask", counted)
    prompt = small_model.prompt_token_ids(PROMPT_LEN)
    # Hot sampling, so the session also draws special and punctuation ids.
    cfg = GenerationConfig(STEPS, Nucleus(temperature=50.0, top_p=1.0, seed=2))
    run = generate_fixed_baseline(small_model, prompt, policy, cfg)
    assert calls == []
    seen = [a.klass for a in classify_tokens(prompt + run.tokens, small_model.vocab)]
    # Decode appended rows of every class, kept and dropped.
    assert set(seen[PROMPT_LEN:-1]) == set(TokenClass)
    # The same session stepped directly, reading every head's live positions.
    _, cache = encode_prompt(small_model, prompt, ProfilerConfig.fixed(policy))
    sampler, token = Sampler(cfg.sampling), None
    for expected_token in run.tokens:
        token, cache = generate_step(small_model, cache, token, sampler)
        assert token == expected_token
        length = cache.seq_len
        codes = make_codes(seen[:length])
        expected = reference_retained(policy, codes, np.zeros(length), PROMPT_LEN)
        for live in live_positions(cache).values():
            assert live.tolist() == expected
    assert calls == []

    # With no step known to only append, every step masks, and gives the
    # same bits.
    monkeypatch.setattr(engine, "appended_counts", lambda *args: None)
    masked = generate_fixed_baseline(small_model, prompt, policy, cfg)
    assert calls and masked.tokens == run.tokens
    assert np.array_equal(masked.cache.outputs(), run.cache.outputs())
    assert [r.mean_recovery for r in masked.records] == [
        r.mean_recovery for r in run.records
    ]


@pytest.mark.parametrize("sampling", [None, Nucleus(seed=5)], ids=["greedy", "nucleus"])
def test_full_policy_matches_reference(mixed_model, sampling):
    prompt = mixed_model.prompt_token_ids(40)
    cfg = GenerationConfig(24) if sampling is None else GenerationConfig(24, sampling)
    full = generate_fixed_baseline(
        mixed_model, prompt, full_policy(), cfg, diagnostics=False
    )
    ref = reference_generate(mixed_model, prompt, cfg)
    assert full.tokens == ref.tokens

    def fields(rec):
        # head_retained as items, so its key order counts too.
        return (
            rec.step,
            rec.token_id,
            list(rec.head_retained.items()),
            rec.total_cache_tokens,
            rec.mean_recovery,
        )

    assert [fields(r) for r in full.records] == [fields(r) for r in ref.records]
    assert all(r.mean_recovery is None for r in ref.records)


def test_reference_cache_holds_every_model_row_across_buffer_growth(small_model):
    model = small_model
    prompt = model.prompt_token_ids(PROMPT_LEN)
    cfg = GenerationConfig(STEPS)
    ref = reference_generate(model, prompt, cfg)
    full = generate_fixed_baseline(model, prompt, full_policy(), cfg, diagnostics=False)
    assert ref.tokens == full.tokens
    cache = ref.cache
    seq_len = PROMPT_LEN + STEPS - 1
    assert cache.seq_len == seq_len
    rows = Rows(model, PROMPT_LEN)
    [group] = cache.groups
    heads = len(model.config.head_grid())
    assert group.policy.is_full and group.slots.tolist() == list(range(heads))
    assert group.n.tolist() == [seq_len] * heads
    for g in range(heads):
        assert group.live(g).tolist() == list(range(seq_len))
    # The last sampled token never joins the cache.
    seen = classify_tokens(prompt + ref.tokens[:-1], model.vocab)
    assert np.array_equal(cache.codes[:seq_len], make_codes([a.klass for a in seen]))
    for g, (layer, head) in enumerate(model.config.head_grid()):
        expected = [rows(layer, head, a.position, a.klass) for a in seen]
        assert np.array_equal(group.K[g, :seq_len], np.array([r[0] for r in expected]))
        assert np.array_equal(group.V[g, :seq_len], np.array([r[1] for r in expected]))


def test_generate_sizes_every_group_for_the_run_once(mixed_model, monkeypatch):
    """No group buffer is replaced during ``generate``; stepping the same
    session directly grows them in chunks and gives the same bits."""
    prompt = mixed_model.prompt_token_ids(GOLDEN_PROMPT)
    cfg = GenerationConfig(STEPS, Nucleus(seed=4))
    names = ("K", "V", "pos", "scores", "shadow")

    def buffers(cache):
        return [getattr(group, name) for group in cache.groups for name in names]

    before = []
    run_decode = engine._run_decode

    def recorded(model, cache, gen_cfg):
        before.extend(buffers(cache))
        return run_decode(model, cache, gen_cfg)

    monkeypatch.setattr(engine, "_run_decode", recorded)
    run = generate(mixed_model, prompt, mixed_groups_config(), cfg)
    assert len(run.cache.groups) == 4
    assert all(a is b for a, b in zip(before, buffers(run.cache), strict=True))

    _, cache = encode_prompt(mixed_model, prompt, mixed_groups_config())
    first = buffers(cache)
    sampler, token, tokens = Sampler(cfg.sampling), None, []
    for _ in range(STEPS):
        token, cache = generate_step(mixed_model, cache, token, sampler)
        tokens.append(token)
    assert any(a is not b for a, b in zip(first, buffers(cache)))
    assert tokens == run.tokens
    assert np.array_equal(cache.outputs(), run.cache.outputs())
    stepped, generated = live_positions(cache), live_positions(run.cache)
    assert stepped.keys() == generated.keys()
    for key, live in stepped.items():
        assert np.array_equal(live, generated[key])


def test_cache_from_another_head_grid_is_rejected(small_model, mixed_model):
    prompt = small_model.prompt_token_ids(PROMPT_LEN)
    _, cache = encode_prompt(small_model, prompt, ProfilerConfig())
    with pytest.raises(EngineError, match="cache/profile mismatch"):
        generate_step(mixed_model, cache, None)


@pytest.mark.parametrize("sampling", [None, Nucleus(seed=3)], ids=["greedy", "nucleus"])
def test_diagnostics_do_not_change_decoding(mixed_model, sampling):
    prompt = mixed_model.prompt_token_ids(48)
    cfg = GenerationConfig(30) if sampling is None else GenerationConfig(30, sampling)
    plain = generate(mixed_model, prompt, ProfilerConfig(), cfg, diagnostics=False)
    diag = generate(mixed_model, prompt, ProfilerConfig(), cfg, diagnostics=True)
    assert plain.tokens == diag.tokens
    assert [r.head_retained for r in plain.records] == [
        r.head_retained for r in diag.records
    ]
    assert all(r.mean_recovery is None for r in plain.records)
    # Both sessions stepped directly keep the same live positions every step.
    _, plain_cache = encode_prompt(mixed_model, prompt, ProfilerConfig(), False)
    _, diag_cache = encode_prompt(mixed_model, prompt, ProfilerConfig(), True)
    plain_sampler, diag_sampler = Sampler(cfg.sampling), Sampler(cfg.sampling)
    token = None
    for rec in diag.records:
        plain_token, plain_cache = generate_step(
            mixed_model, plain_cache, token, plain_sampler
        )
        token, diag_cache = generate_step(mixed_model, diag_cache, token, diag_sampler)
        assert plain_token == token == rec.token_id
        assert rec.mean_recovery is not None and 0.0 < rec.mean_recovery <= 1.0
        plain_live = live_positions(plain_cache)
        for key, live in live_positions(diag_cache).items():
            assert np.array_equal(live, plain_live[key])
            assert live.size == rec.head_retained[key]
            assert np.all(np.diff(live) > 0)


def test_stepping_with_one_sampler_reproduces_generate():
    # A sampler carries its RNG across steps; a bare Nucleus would restart
    # it on every call, so generate_step rejects one.
    config = ModelConfig(num_layers=2, num_heads=4, head_dim=16, vocab_size=64, seed=5)
    model = SyntheticModel(config, cycling_plan(config, list(Archetype)), 0.97)
    prompt = model.prompt_token_ids(40)
    nucleus = Nucleus(seed=5)
    run = generate(model, prompt, ProfilerConfig(), GenerationConfig(12, nucleus))
    _, cache = encode_prompt(model, prompt, ProfilerConfig())
    sampler, token, tokens = Sampler(nucleus), None, []
    for _ in range(12):
        token, cache = generate_step(model, cache, token, sampler)
        tokens.append(token)
    assert tokens == run.tokens
    with pytest.raises(EngineError, match="sampler must be a Sampler or None"):
        generate_step(model, cache, token, nucleus)


@pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
def test_nucleus_rejects_a_temperature_not_above_zero(temperature):
    # NaN compares False with everything, so it must fail a positive test.
    with pytest.raises(EngineError, match="temperature must be > 0"):
        Nucleus(temperature=temperature)


def cache_state(cache) -> tuple:
    """The cache's length and class codes, every group's buffers as bytes, and
    its last record."""
    names = ("n", "pos", "K", "V", "scores", "shadow", "outputs", "recovery")
    groups = [
        [None if getattr(g, name) is None else getattr(g, name).tobytes() for name in names]
        for g in cache.groups
    ]
    return cache.seq_len, cache.codes.tobytes(), groups, cache.last_record


@pytest.mark.parametrize("diagnostics", [False, True], ids=["plain", "diagnostics"])
def test_step_whose_rows_cannot_be_read_leaves_the_cache_unchanged(
    mixed_model, diagnostics
):
    # The trace ends two positions past the prompt, so the fourth step's
    # rows, one position past its end, cannot be read.
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    model = TraceModel(record_trace(mixed_model, prompt + [7, 8], PROMPT_LEN))
    _, cache = encode_prompt(model, prompt, mixed_groups_config(), diagnostics)
    token = None
    for _ in range(3):
        token, cache = generate_step(model, cache, token)
    record, before = cache.last_record, cache_state(cache)
    with pytest.raises(ModelError, match=f"position {PROMPT_LEN + 2} outside trace"):
        generate_step(model, cache, token)
    assert cache.last_record is record
    assert cache_state(cache) == before


def test_direct_generate_step_records_are_numbered_from_one(small_model):
    prompt = small_model.prompt_token_ids(PROMPT_LEN)
    policy = CompressionPolicy(frozenset({PolicyAtom.SPECIAL, PolicyAtom.LOCAL}))
    _, cache = encode_prompt(small_model, prompt, ProfilerConfig.fixed(policy))
    token, steps = None, []
    for _ in range(6):
        token, cache = generate_step(small_model, cache, token)
        steps.append(cache.last_record.step)
    assert steps == [1, 2, 3, 4, 5, 6]
    run = generate(small_model, prompt, ProfilerConfig(), GenerationConfig(6))
    assert [r.step for r in run.records] == [1, 2, 3, 4, 5, 6]


def test_decision_carries_its_retained_set_through_decode(mixed_model):
    prompt = mixed_model.prompt_token_ids(GOLDEN_PROMPT)
    profile, cache = encode_prompt(mixed_model, prompt, mixed_groups_config())
    heads = {key: (codes, stats.colsum)
             for key, _, _, stats, codes in prompt_head_data(mixed_model, prompt)}
    chosen = {}
    for key, (group, _) in head_slots(cache).items():
        decision = profile[key]
        codes, scores = heads[key]
        expected = retained_indices(decision.policy, codes, scores, GOLDEN_PROMPT)
        assert np.array_equal(decision.retained, expected)
        assert decision.cost_tokens == decision.retained.size
        assert not decision.retained.flags.writeable
        assert not np.shares_memory(decision.retained, group.pos)
        chosen[key] = decision.retained.copy()
    token = None
    for _ in range(STEPS):
        token, cache = generate_step(mixed_model, cache, token)
    for key, decision in profile.items():
        assert np.array_equal(decision.retained, chosen[key])


@pytest.mark.parametrize(
    "call",
    [
        "encode_prompt",
        "generate",
        "generate_fixed_baseline",
        "reference_generate",
        "record_trace",
    ],
)
def test_overlapping_class_ids_warn_once_per_call(call):
    config = ModelConfig(num_layers=1, num_heads=2, head_dim=16, vocab_size=32, seed=3)
    vocab = VocabMetadata(special_ids={0, 1}, punctuation_ids={1, 2, 3, 4})
    plan = cycling_plan(config, list(Archetype))
    model = SyntheticModel(config, plan, 0.97, vocab=vocab)
    prompt = model.prompt_token_ids(PROMPT_LEN)
    cfg = GenerationConfig(4)
    runs = {
        "encode_prompt": lambda: encode_prompt(model, prompt, ProfilerConfig()),
        "generate": lambda: generate(model, prompt, ProfilerConfig(), cfg),
        "generate_fixed_baseline": lambda: generate_fixed_baseline(
            model, prompt, full_policy(), cfg
        ),
        "reference_generate": lambda: reference_generate(model, prompt, cfg),
        "record_trace": lambda: record_trace(model, prompt, PROMPT_LEN),
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs[call]()
    assert sum("overlap" in str(w.message) for w in caught) == 1


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prompt_pass_keeps_one_attention_map_alive():
    # 32 heads at P=256, replayed from a recorded trace so the traced
    # runs allocate for the engine, not for row synthesis.
    P = 256
    config = ModelConfig(num_layers=4, num_heads=8, head_dim=32, vocab_size=64, seed=5)
    synth = SyntheticModel(config, cycling_plan(config, list(Archetype)), 0.97)
    prompt = synth.prompt_token_ids(P)
    model = TraceModel(record_trace(synth, prompt, P))
    all_maps = len(config.head_grid()) * P * P * 8
    encode = _traced_peak(lambda: encode_prompt(model, prompt, ProfilerConfig()))
    reference = _traced_peak(
        lambda: reference_generate(model, prompt, GenerationConfig(0))
    )
    # ``all_maps`` is every head's P x P map as float64 masses; holding them at
    # once would exceed 1.0.
    assert encode < 0.5 * all_maps, encode / all_maps
    assert reference < 0.5 * all_maps, reference / all_maps


def trace_with_entry(model, tokens, prompt_len, key, pos, role, value):
    """``record_trace`` of ``tokens`` with one entry of the ``role`` row of
    head ``key`` at ``pos`` set to ``value``."""
    trace = record_trace(model, tokens, prompt_len)
    block: TraceBlock = trace.blocks[key][pos]
    row = getattr(block, role).copy()
    row[3] = value
    trace.blocks[key][pos] = dataclasses.replace(block, **{role: row})
    return trace


@pytest.mark.parametrize("diagnostics", [False, True], ids=["plain", "diagnostics"])
def test_prompt_row_past_float32_range_is_an_engine_error(mixed_model, diagnostics):
    # 1e39 is a finite float64, so the trace accepts it, but float32 has no
    # such value: cast, it would be inf and the softmax NaN.
    tokens = mixed_model.prompt_token_ids(PROMPT_LEN)
    model = TraceModel(
        trace_with_entry(mixed_model, tokens, PROMPT_LEN, (2, 1), 5, "k", 1e39)
    )
    match = "K row at layer 2, head 1, position 5 is not finite in float32"
    with pytest.raises(EngineError, match=match):
        encode_prompt(model, tokens, mixed_groups_config(), diagnostics)
    with pytest.raises(EngineError, match=match):
        reference_generate(model, tokens, GenerationConfig(2))


@pytest.mark.parametrize("diagnostics", [False, True], ids=["plain", "diagnostics"])
def test_decode_row_past_float32_range_leaves_the_cache_unchanged(
    mixed_model, diagnostics
):
    # The third step reads position PROMPT_LEN + 1, whose Q row of head
    # (3, 2) holds -1e39.
    tokens = mixed_model.prompt_token_ids(PROMPT_LEN + 3)
    bad = PROMPT_LEN + 1
    model = TraceModel(
        trace_with_entry(mixed_model, tokens, PROMPT_LEN, (3, 2), bad, "q", -1e39)
    )
    _, cache = encode_prompt(model, tokens[:PROMPT_LEN], mixed_groups_config(), diagnostics)
    token = None
    for _ in range(2):
        token, cache = generate_step(model, cache, token)
    record, before = cache.last_record, cache_state(cache)
    match = f"Q row at layer 3, head 2, position {bad} is not finite in float32"
    with pytest.raises(EngineError, match=match):
        generate_step(model, cache, token)
    assert cache.last_record is record
    assert cache_state(cache) == before
    with pytest.raises(EngineError, match=match):
        reference_generate(model, tokens[:PROMPT_LEN], GenerationConfig(4))


def test_rows_and_caches_are_float32_and_masses_float64(mixed_model, monkeypatch):
    logits_inputs = []
    head_logits = mixed_model.head_logits

    def recorded(outputs):
        logits_inputs.append(outputs.dtype)
        return head_logits(outputs)

    monkeypatch.setattr(mixed_model, "head_logits", recorded)
    prompt = mixed_model.prompt_token_ids(GOLDEN_PROMPT)
    for _, K, V, stats, _ in prompt_head_data(mixed_model, prompt):
        assert K.dtype == V.dtype == np.float32
        assert stats.colsum.dtype == stats.last_row.dtype == np.float64
    cfg = GenerationConfig(STEPS)
    run = generate(mixed_model, prompt, mixed_groups_config(), cfg, diagnostics=True)
    ref = reference_generate(mixed_model, prompt, cfg)
    groups = run.cache.groups + ref.cache.groups
    assert sum(group.scores is not None for group in groups) == 1
    assert sum(group.shadow is not None for group in groups) == 3
    for group in groups:
        assert group.K.dtype == group.V.dtype == np.float32
        assert group.shadow is None or group.shadow.dtype == np.float32
        assert group.scores is None or group.scores.dtype == np.float64
        assert group.outputs.dtype == group.recovery.dtype == np.float64
    assert len(logits_inputs) == 2 * STEPS
    assert set(logits_inputs) == {np.dtype(np.float64)}


def test_session_holds_two_float32_rows_per_retained_row():
    """The K and V buffers of an encoded cache, and of a reference session
    sized for its run, hold 2 * 4 * d bytes per retained position."""
    config = ModelConfig(num_layers=2, num_heads=4, head_dim=32, vocab_size=64, seed=5)
    synth = SyntheticModel(config, cycling_plan(config, list(Archetype)), 0.97)
    prompt = synth.prompt_token_ids(200)
    model = TraceModel(record_trace(synth, prompt + [9] * 15, len(prompt)))
    # Every head keeps the same set, so each group's buffers are full.
    policy = CompressionPolicy(frozenset({PolicyAtom.SPECIAL, PolicyAtom.LOCAL}))
    row_bytes = 2 * 4 * config.head_dim

    def array_bytes() -> int:
        # numpy traces array data, not array objects, in its own domain.
        only_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        traces = tracemalloc.take_snapshot().filter_traces([only_data])
        return sum(stat.size for stat in traces.statistics("filename"))

    def kv_bytes(cache) -> int:
        held = array_bytes()
        for group in cache.groups:
            group.K = group.V = None
        return held - array_bytes()

    tracemalloc.start()
    try:
        _, cache = encode_prompt(model, prompt, ProfilerConfig.fixed(policy), False)
        retained = sum(cache.head_retained().values())
        assert kv_bytes(cache) == row_bytes * retained
        ref = reference_generate(model, prompt, GenerationConfig(16))
        retained = sum(ref.cache.head_retained().values())
        assert retained == len(config.head_grid()) * (len(prompt) + 15)
        assert kv_bytes(ref.cache) == row_bytes * retained
    finally:
        tracemalloc.stop()


def _live_digest(digest, cache):
    """Fold each head's live positions, in head_grid() order, into ``digest``."""
    for key, live in live_positions(cache).items():
        digest.update(repr(key).encode())
        digest.update(live.astype(np.int64).tobytes())


def _step_digest(digest, rec, cache):
    """Fold every field of a step's record, in the record's own key order,
    then each head's live positions in head_grid() order, into ``digest``."""
    digest.update(repr((rec.step, rec.token_id, rec.total_cache_tokens)).encode())
    digest.update(repr(list(rec.head_retained.items())).encode())
    digest.update(float(rec.mean_recovery).hex().encode())
    _live_digest(digest, cache)


# A replayed session whose profile mixes full, special, special+local and
# frequent heads, decoded past two buffer growths with diagnostics and
# nucleus sampling. Its digest pins the bits of every step record and of
# every head's live positions after each step.
DECODE_GOLDEN_SHA256 = (
    "864ade9a6a1122a3611beccd866cfcc174cda7d97aa58e1cdd1454fa5892150d"
)
# The same session's tokens, and the digest of its live positions after each
# step, as the float64 engine decoded them: float32 rows and caches moved
# only the recovery bits.
DECODE_GOLDEN_TOKENS = [
    24, 17, 21, 6, 3, 40, 12, 24, 41, 26, 31, 41, 42, 8, 19, 4, 9, 34, 23, 26, 17,
    5, 2, 7, 36, 5, 20, 31, 28, 16, 37, 26, 4, 32, 0, 41, 41, 19, 27, 15, 23, 37,
    21, 41, 13, 37, 18, 27, 47, 17, 18, 15, 6, 47, 38, 15, 47, 42, 42, 0, 20, 14,
    31, 44, 39, 18, 31, 42, 44, 16, 16, 38, 21, 38, 37, 39, 5, 47, 44, 31
]
DECODE_GOLDEN_LIVE_SHA256 = (
    "4ee01b6e3bd5bdfa05106b0e98c17e937d8427815b1e7d6a61c9709ccb15b32b"
)


def test_decode_golden(mixed_model):
    tokens = mixed_model.prompt_token_ids(GOLDEN_PROMPT + GOLDEN_STEPS - 1)
    model = TraceModel(record_trace(mixed_model, tokens, GOLDEN_PROMPT))
    profile, cache = encode_prompt(
        model, tokens[:GOLDEN_PROMPT], mixed_groups_config(), diagnostics=True
    )
    assert {str(d.policy) for _, d in profile.items()} == MIXED_GROUP_POLICIES
    digest, sampler, token = hashlib.sha256(), Sampler(Nucleus(seed=9)), None
    live, sampled = hashlib.sha256(), []
    for _ in range(GOLDEN_STEPS):
        token, cache = generate_step(model, cache, token, sampler)
        _step_digest(digest, cache.last_record, cache)
        _live_digest(live, cache)
        sampled.append(token)
    assert sampled == DECODE_GOLDEN_TOKENS
    assert live.hexdigest() == DECODE_GOLDEN_LIVE_SHA256
    assert digest.hexdigest() == DECODE_GOLDEN_SHA256
