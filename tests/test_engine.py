from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from adaptive_kv.attention import softmax_vector
from adaptive_kv.engine import (
    GenerationConfig,
    Nucleus,
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
    PolicyContext,
    _budget,
    feasible_set,
    full_policy,
    update_cumulative_scores,
)
from adaptive_kv.model import Archetype, ModelConfig, SyntheticModel, cycling_plan
from adaptive_kv.profiler import ProfilerConfig
from adaptive_kv.tokens import TokenClass
from adaptive_kv.trace import TraceModel, record_trace

PROMPT_LEN = 24
# Long enough for the full policy's buffers to grow twice: once on the
# first append and again one chunk later.
STEPS = 80


def reference_atom_indices(atom, policy, ctx, candidates):
    """List-based retained positions of one atom, kept as the reference."""
    universe = range(ctx.current_len) if candidates is None else candidates
    if atom is PolicyAtom.FULL:
        return list(universe)
    if atom in (PolicyAtom.SPECIAL, PolicyAtom.PUNCTUATION):
        klass = (
            TokenClass.SPECIAL if atom is PolicyAtom.SPECIAL else TokenClass.PUNCTUATION
        )
        wanted = {
            a.position
            for a in ctx.annotations
            if a.klass is klass and a.position < ctx.current_len
        }
        return [p for p in universe if p in wanted]
    if atom is PolicyAtom.LOCAL:
        window_start = ctx.current_len - _budget(policy.r_l, ctx.prompt_len)
        return [p for p in universe if p >= window_start]
    if atom is PolicyAtom.FREQUENT:
        budget = _budget(policy.r_f, ctx.current_len)
        pool = sorted(universe)
        ranked = sorted(pool, key=lambda p: (-ctx.cumulative_scores[p], p))
        return ranked[:budget]
    raise AssertionError(atom)


def reference_retained(policy, ctx, candidates=None) -> list[int]:
    cand = None if candidates is None else sorted({int(p) for p in candidates})
    retained: set[int] = set()
    for atom in policy.atoms:
        retained.update(reference_atom_indices(atom, policy, ctx, cand))
    return sorted(retained)


class Rows:
    """Memoised model rows by (layer, head, position, class)."""

    def __init__(self, model, prompt_len):
        self.model = model
        self.prompt_len = prompt_len
        self._rows = {}

    def __call__(self, layer, head, pos, klass):
        key = (layer, head, pos, klass)
        if key not in self._rows:
            m = self.model
            self._rows[key] = (
                m.k_row(layer, head, pos, klass, self.prompt_len),
                m.v_row(layer, head, pos),
                m.q_row(layer, head, pos, self.prompt_len),
            )
        return self._rows[key]


# The extra policy evicts a row followed by exactly one kept row, so
# compaction moves a single row.
@pytest.mark.parametrize(
    "policy", feasible_set() + [feasible_set(r_f=0.4)[2]], ids=str
)
def test_cache_matches_list_reference_every_step(small_model, policy):
    model = small_model
    d = model.config.head_dim
    prompt = model.prompt_token_ids(PROMPT_LEN)
    _, cache = encode_prompt(model, prompt, None, fixed_policy=policy, diagnostics=False)
    contexts = {key: ctx for key, _, _, _, ctx in prompt_head_data(model, prompt)}
    rows = Rows(model, PROMPT_LEN)
    ref_scores = {key: ctx.cumulative_scores for key, ctx in contexts.items()}
    for key, state in cache.heads.items():
        ctx = contexts[key]
        assert state.live.tolist() == reference_retained(policy, ctx)

    growths = 0
    token = None
    for _ in range(STEPS):
        previous = {key: state.live.tolist() for key, state in cache.heads.items()}
        capacity = {key: state.K.shape[0] for key, state in cache.heads.items()}
        token, cache = generate_step(model, cache, token)
        if len(cache.annotations) == PROMPT_LEN:
            continue
        pos = cache.seq_len - 1
        annotations = tuple(cache.annotations)
        for key, state in cache.heads.items():
            layer, head = key
            growths += state.K.shape[0] != capacity[key]
            attended = previous[key] + [pos]
            K = np.vstack([rows(layer, head, p, annotations[p].klass)[0] for p in attended])
            q = rows(layer, head, pos, annotations[pos].klass)[2]
            weights = softmax_vector((K @ q) / np.sqrt(float(d)))
            old_ctx = PolicyContext(annotations[:pos], PROMPT_LEN, pos, ref_scores[key])
            ref_scores[key] = update_cumulative_scores(
                old_ctx, weights[:-1], np.array(previous[key], dtype=np.intp)
            ).cumulative_scores
            ctx = PolicyContext(annotations, PROMPT_LEN, pos + 1, ref_scores[key])

            live = state.live.tolist()
            assert live == reference_retained(policy, ctx, attended)
            live_rows = [rows(layer, head, p, annotations[p].klass) for p in live]
            assert np.array_equal(state.K[: state.n], np.array([r[0] for r in live_rows]))
            assert np.array_equal(state.V[: state.n], np.array([r[1] for r in live_rows]))
            if PolicyAtom.FREQUENT in policy.atoms:
                assert np.array_equal(state.scores[: pos + 1], ref_scores[key])
            else:
                assert state.scores is None
    assert growths >= 1


@pytest.mark.parametrize("sampling", [None, Nucleus(seed=5)], ids=["greedy", "nucleus"])
def test_full_policy_matches_reference(mixed_model, sampling):
    prompt = mixed_model.prompt_token_ids(40)
    cfg = GenerationConfig(24) if sampling is None else GenerationConfig(24, sampling)
    full = generate_fixed_baseline(mixed_model, prompt, full_policy(), cfg)
    ref = reference_generate(mixed_model, prompt, cfg)
    assert full.tokens == ref.tokens
    assert [r.total_cache_tokens for r in full.records] == [
        r.total_cache_tokens for r in ref.records
    ]


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
    for (layer, head), state in cache.heads.items():
        expected = [rows(layer, head, a.position, a.klass) for a in cache.annotations]
        assert state.n == seq_len and state.pos.tolist() == list(range(seq_len))
        assert np.array_equal(state.K, np.array([r[0] for r in expected]))
        assert np.array_equal(state.V, np.array([r[1] for r in expected]))


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
    assert all(r.retained_positions is None for r in plain.records)
    for rec in diag.records:
        assert rec.mean_recovery is not None and 0.0 < rec.mean_recovery <= 1.0
        for key, live in rec.retained_positions.items():
            assert not live.flags.writeable
            assert live.size == rec.head_retained[key]
            assert np.all(np.diff(live) > 0)


def test_direct_generate_step_records_are_numbered_from_one(small_model):
    prompt = small_model.prompt_token_ids(PROMPT_LEN)
    policy = CompressionPolicy(frozenset({PolicyAtom.SPECIAL, PolicyAtom.LOCAL}))
    _, cache = encode_prompt(small_model, prompt, None, fixed_policy=policy)
    token, steps = None, []
    for _ in range(6):
        token, cache = generate_step(small_model, cache, token)
        steps.append(cache.last_record.step)
    assert steps == [1, 2, 3, 4, 5, 6]
    run = generate(small_model, prompt, ProfilerConfig(), GenerationConfig(6))
    assert [r.step for r in run.records] == [1, 2, 3, 4, 5, 6]


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
    # Holding every head's float64 map at once would exceed 1.0.
    assert encode < 0.5 * all_maps, encode / all_maps
    assert reference < 0.5 * all_maps, reference / all_maps
