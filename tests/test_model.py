from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_kv.attention import PromptStats
from adaptive_kv.engine import GenerationConfig, prompt_head_data, reference_generate
from adaptive_kv.model import (
    Archetype,
    HeadPlan,
    ModelConfig,
    ModelError,
    SyntheticModel,
    _NUM_PLANTED_DIMS,
    _ROLE_KEY,
    _ROLE_PROMPT,
    _ROLE_QUERY,
    _ROLE_VALUE,
    _WINDOW_POSITIONS,
    cycling_plan,
    punctuation_positions,
    sparse_columns,
)
from adaptive_kv.profiler import recovery_ratio
from adaptive_kv.tokens import TokenAnnotation, TokenClass, classify_tokens
from adaptive_kv.trace import AttentionTrace, TraceBlock, TraceModel, record_trace
from conftest import explicit_map, head_maps

CONFIG = ModelConfig(num_layers=1, num_heads=4, head_dim=16, vocab_size=32, seed=11)
PLAN = {
    (0, 0): HeadPlan(Archetype.SPECIAL_DOMINANT),
    (0, 1): HeadPlan(Archetype.LOCAL_DOMINANT),
    (0, 2): HeadPlan(Archetype.COLUMN_SPARSE),
    (0, 3): HeadPlan(Archetype.DIFFUSE),
}
DOMINANCE = 0.97
PROMPT_LEN = 48


def uniform_plan(
    config: ModelConfig, archetype: Archetype
) -> dict[tuple[int, int], HeadPlan]:
    return {key: HeadPlan(archetype) for key in config.head_grid()}


@pytest.fixture(scope="module")
def model():
    return SyntheticModel(CONFIG, PLAN, DOMINANCE)


@pytest.fixture(scope="module")
def decoded_maps(model):
    """Explicit attention maps at decoding steps 1, 10, 20, 30."""
    prompt = model.prompt_token_ids(PROMPT_LEN)
    run = reference_generate(model, prompt, GenerationConfig(max_new_tokens=29))
    all_tokens = prompt + run.tokens
    return {
        step: head_maps(model, all_tokens[: PROMPT_LEN + step - 1], PROMPT_LEN)
        for step in (1, 10, 20, 30)
    }


def _class_positions(model, tokens, klass):
    anns = classify_tokens(tokens, model.vocab)
    return [a.position for a in anns if a.klass is klass]


def test_same_seed_bitwise_identical(model):
    twin = SyntheticModel(CONFIG, PLAN, DOMINANCE)
    assert model.prompt_token_ids(PROMPT_LEN) == twin.prompt_token_ids(PROMPT_LEN)
    for pos in (0, 7, 31):
        a = model.k_row(0, 1, pos, TokenClass.OTHER, PROMPT_LEN)
        b = twin.k_row(0, 1, pos, TokenClass.OTHER, PROMPT_LEN)
        assert np.array_equal(a, b)
        assert np.array_equal(
            model.q_row(0, 2, pos, PROMPT_LEN), twin.q_row(0, 2, pos, PROMPT_LEN)
        )
        assert np.array_equal(model.v_row(0, 3, pos), twin.v_row(0, 3, pos))


def test_identical_seeds_identical_generations(model):
    twin = SyntheticModel(CONFIG, PLAN, DOMINANCE)
    prompt = model.prompt_token_ids(16)
    a = reference_generate(model, prompt, GenerationConfig(max_new_tokens=10))
    b = reference_generate(twin, prompt, GenerationConfig(max_new_tokens=10))
    assert a.tokens == b.tokens


def test_prompt_layout(model):
    prompt = model.prompt_token_ids(PROMPT_LEN)
    anns = classify_tokens(prompt, model.vocab)
    assert anns[0].klass is TokenClass.SPECIAL
    expected_punct = set(punctuation_positions(PROMPT_LEN))
    actual_punct = {a.position for a in anns if a.klass is TokenClass.PUNCTUATION}
    assert actual_punct == expected_punct


def test_special_dominance_holds_at_every_step(model, decoded_maps):
    for step, head_data in decoded_maps.items():
        A, codes = head_data[(0, 0)]
        specials = np.flatnonzero(codes == TokenClass.SPECIAL)
        per_row = A[:, specials].sum(axis=1)
        assert per_row.min() >= DOMINANCE, f"step {step}"
        stats = PromptStats(A.sum(axis=0), A[-1])
        assert recovery_ratio(stats, specials) >= DOMINANCE


def test_local_dominance_holds_at_every_step(model, decoded_maps):
    window = model.local_window(PROMPT_LEN)
    for step, head_data in decoded_maps.items():
        A = head_data[(0, 1)][0]
        for i in range(A.shape[0]):
            lo = max(0, i - window + 1)
            assert A[i, lo : i + 1].sum() >= DOMINANCE, f"step {step} row {i}"


def test_column_sparse_dominance_holds_at_every_step(model, decoded_maps):
    cols = sparse_columns(PROMPT_LEN)
    for step, head_data in decoded_maps.items():
        A = head_data[(0, 2)][0]
        for i in range(A.shape[0]):
            visible = [c for c in cols if c <= i]
            assert A[i, visible].sum() >= DOMINANCE, f"step {step} row {i}"


def test_diffuse_head_has_no_dominant_subset(model, decoded_maps):
    # No subset covering < 80% of the visible positions reaches dominance;
    # checked on the current query row at each step.
    for step, head_data in decoded_maps.items():
        A = head_data[(0, 3)][0]
        row = A[-1]
        visible = A.shape[0]
        best_subset = np.sort(row)[::-1][: max(1, int(0.8 * visible) - 1)]
        assert best_subset.sum() < DOMINANCE, f"step {step}"


def test_diffuse_single_column_bound():
    config = ModelConfig(num_layers=1, num_heads=1, head_dim=16, vocab_size=32, seed=3)
    model = SyntheticModel(config, uniform_plan(config, Archetype.DIFFUSE), 0.97)
    prompt = model.prompt_token_ids(10)
    [(_, K, _, stats, _)] = prompt_head_data(model, prompt)
    Q = np.array([model.q_row(0, 0, pos, len(prompt)) for pos in range(len(prompt))])
    A = explicit_map(Q, K)
    assert np.array_equal(stats.last_row, A[-1])
    assert A[-1].max() <= 0.2


def test_dominance_out_of_range_rejected():
    for bad in (0.5, 1.0, -0.1, 1.5):
        with pytest.raises(ModelError, match="dominance"):
            SyntheticModel(CONFIG, PLAN, bad)


def test_plan_must_cover_grid():
    with pytest.raises(ModelError, match="does not cover"):
        SyntheticModel(CONFIG, {(0, 0): HeadPlan(Archetype.DIFFUSE)}, 0.97)
    with pytest.raises(ModelError, match="no heads defined"):
        SyntheticModel(CONFIG, {}, 0.97)


def test_plan_must_stay_inside_grid():
    outside = {**PLAN, (1, 0): HeadPlan(Archetype.DIFFUSE), (0, 4): Archetype.DIFFUSE}
    with pytest.raises(
        ModelError,
        match=r"^plan names heads outside the model grid: \[\(1, 0\), \(0, 4\)\]$",
    ):
        SyntheticModel(CONFIG, outside, DOMINANCE)
    # A plan that misses a head is reported before one that names extra heads.
    del outside[(0, 2)]
    with pytest.raises(ModelError, match=r"^plan does not cover heads \[\(0, 2\)\]$"):
        SyntheticModel(CONFIG, outside, DOMINANCE)


def test_config_counts_validated():
    with pytest.raises(ModelError, match="num_layers"):
        ModelConfig(0, 1, 16, 32, 0)


def test_phase_switch_changes_archetype_at_position():
    plan = dict(PLAN)
    plan[(0, 0)] = HeadPlan(
        Archetype.SPECIAL_DOMINANT,
        switch_to=Archetype.LOCAL_DOMINANT,
        switch_step=15,
    )
    model = SyntheticModel(CONFIG, plan, DOMINANCE)
    n = 16
    # Decode step 15 begins at absolute position n + 14.
    before = model.q_row(0, 0, n + 13, n)
    after = model.q_row(0, 0, n + 14, n)
    assert before[0] > 0.0 and after[0] == 0.0
    assert after[3] > 0.0


def test_switch_requires_both_fields():
    with pytest.raises(ModelError, match="switch"):
        HeadPlan(Archetype.DIFFUSE, switch_to=Archetype.LOCAL_DOMINANT)


SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32]),
    st.integers(0, 2**32).map(lambda k: 2**64 + k),
    st.integers(0, 2**32).map(lambda k: 2**160 + k),
)


def seeded_model(seed: int, num_heads: int = 4, head_dim: int = 16) -> SyntheticModel:
    config = ModelConfig(num_layers=2, num_heads=num_heads, head_dim=head_dim,
                         vocab_size=32, seed=seed)
    return SyntheticModel(config, cycling_plan(config, list(Archetype)), DOMINANCE)


def stream_draw(seed: int, role: int, layer: int, rows: int, d: int) -> np.ndarray:
    """One ``(rows, 4 * ceil(d / 4))`` uniform(-1, 1) draw of a (role, layer)
    stream, from its start."""
    seq = np.random.SeedSequence(seed, spawn_key=(role, layer))
    gen = np.random.Generator(np.random.Philox(seq))
    return gen.uniform(-1.0, 1.0, (rows, 4 * ((d + 3) // 4)))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(6, 40), st.integers(1, 5), st.integers(1, 8), st.randoms())
def test_rows_in_any_order_are_slices_of_one_stream_draw(seed, d, heads, n, rnd):
    model = seeded_model(seed, heads, d)
    layer, planted, amp = 1, _NUM_PLANTED_DIMS, model._noise_amp
    draws = {
        role: stream_draw(seed, role, layer, n * heads, d)
        for role in (_ROLE_KEY, _ROLE_QUERY, _ROLE_VALUE)
    }
    rows = [(pos, head) for pos in range(n) for head in range(heads)]
    shuffled = rnd.sample(rows, len(rows))
    for pos, head in shuffled + shuffled[::-1]:
        i = pos * heads + head
        k = model.k_row(layer, head, pos, TokenClass.OTHER, n)[planted:]
        q = model.q_row(layer, head, pos, n)[planted:]
        v = model.v_row(layer, head, pos)
        want_k = draws[_ROLE_KEY][i, : d - planted] * amp
        want_q = draws[_ROLE_QUERY][i, : d - planted] * (model._sqrt_d * amp)
        assert k.tobytes() == want_k.tobytes()
        assert q.tobytes() == want_q.tobytes()
        assert v.tobytes() == draws[_ROLE_VALUE][i, :d].tobytes()


def counter_row(seed: int, role: int, layer: int, start: int, n: int) -> np.ndarray:
    """``n`` uniform(-1, 1) words of a (role, layer) stream from Philox
    counter ``start``, positioned by the constructor rather than a jump."""
    seq = np.random.SeedSequence(seed, spawn_key=(role, layer))
    return np.random.Generator(np.random.Philox(seq, counter=start)).uniform(-1.0, 1.0, n)


def read_row(model, role: int, layer, head, pos, klass, prompt_len: int) -> np.ndarray:
    if role == _ROLE_KEY:
        return model.k_row(layer, head, pos, klass, prompt_len)
    if role == _ROLE_QUERY:
        return model.q_row(layer, head, pos, prompt_len)
    return model.v_row(layer, head, pos)


def noise_row(model: SyntheticModel, role: int, layer: int, head: int, pos: int):
    """The noise part of one row, read through the public row accessors."""
    row = read_row(model, role, layer, head, pos, TokenClass.OTHER, pos + 1)
    return row if role == _ROLE_VALUE else row[_NUM_PLANTED_DIMS:]


ROW_ROLES = st.sampled_from([_ROLE_KEY, _ROLE_QUERY, _ROLE_VALUE])
ROW_KEYS = st.tuples(ROW_ROLES, st.integers(0, 1), st.integers(0, 3), st.integers(0, 4095))


def query_dims(model: SyntheticModel, layer: int, head: int, pos: int,
               prompt_len: int) -> list[float]:
    """Dims 0-3 of query row (layer, head, pos): the archetype of the phase
    ``pos`` lies in plants one of them. Decode step s reads position
    ``prompt_len + s - 1``, so a head switching at step s switches there."""
    plan = model.plan[(layer, head)]
    switched = plan.switch_step is not None and pos >= prompt_len + plan.switch_step - 1
    archetype = plan.switch_to if switched else plan.archetype
    sqrt_d = math.sqrt(float(model.config.head_dim))
    odds = math.log(model.dominance / (1.0 - model.dominance))
    dims = [0.0] * 4
    if archetype in (Archetype.SPECIAL_DOMINANT, Archetype.COLUMN_SPARSE):
        # The indicator logit outweighs max_context - 1 competitors whose
        # noise moves each logit by at most 0.05.
        indicator = odds + math.log(model.max_context) + 2.0 * 0.05 + 0.5
        dims[0 if archetype is Archetype.SPECIAL_DOMINANT else 2] = indicator * sqrt_d
    elif archetype is Archetype.LOCAL_DOMINANT:
        # The slope beta that leaves at most 1 - dominance outside the local
        # window, by fixed point; the position ramp is pos * 0.01.
        window = math.ceil(model.local_window_frac * prompt_len)
        target = odds + 2.0 * 0.05 + 0.3
        beta = (target + 1.0) / window
        for _ in range(80):
            beta = (target + math.log(1.0 / (1.0 - math.exp(-beta)))) / window
        dims[3] = beta * sqrt_d / 0.01
    return dims


def reference_row(model: SyntheticModel, role: int, layer: int, head: int, pos: int,
                  klass: TokenClass, prompt_len: int) -> np.ndarray:
    """Row (layer, head, pos) of ``role``, built from its Philox counter and
    the planted-dim formulas: a key row plants its class's one-hot, whether
    ``pos`` is a sparse column, and ``pos * 0.01``; noise words follow,
    scaled so that they move a logit by at most 0.05."""
    cfg = model.config
    d = cfg.head_dim
    start = (pos * cfg.num_heads + head) * ((d + 3) // 4)
    if role == _ROLE_VALUE:
        return counter_row(cfg.seed, role, layer, start, d)
    amp = math.sqrt(0.05 / (d - 4))
    if role == _ROLE_KEY:
        planted = [klass == TokenClass.SPECIAL, klass == TokenClass.PUNCTUATION,
                   pos in sparse_columns(prompt_len), pos * 0.01]
    else:
        planted = query_dims(model, layer, head, pos, prompt_len)
        amp = math.sqrt(float(d)) * amp
    noise = counter_row(cfg.seed, role, layer, start, d - 4) * amp
    return np.concatenate([np.array(planted, dtype=float), noise])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_read_alone_matches_its_philox_counter(data):
    model, tokens, prompt_len = data.draw(switching_models())
    cfg = model.config
    role = data.draw(ROW_ROLES)
    layer = data.draw(st.integers(0, cfg.num_layers - 1))
    head = data.draw(st.integers(0, cfg.num_heads - 1))
    # Near the prompt, where sparse columns and phase switches lie, or anywhere.
    pos = data.draw(st.one_of(st.integers(0, len(tokens) + 4), st.integers(0, 4095)))
    klass = data.draw(st.sampled_from(list(TokenClass)))
    want = reference_row(model, role, layer, head, pos, klass, prompt_len)
    got = read_row(model, role, layer, head, pos, klass, prompt_len)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(SEEDS, st.lists(ROW_KEYS, min_size=2, max_size=8))
def test_memoised_streams_do_not_leak_between_roles_and_layers(seed, keys):
    model = seeded_model(seed)
    for key in keys + keys[::-1]:
        want = noise_row(seeded_model(seed), *key)
        assert noise_row(model, *key).tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(SEEDS, st.integers(1, 200))
def test_prompt_is_drawn_from_its_pcg64_stream(seed, prompt_len):
    model = seeded_model(seed)
    seq = np.random.SeedSequence(seed, spawn_key=(_ROLE_PROMPT,))
    rng = np.random.Generator(np.random.PCG64(seq))
    want = rng.integers(5, model.config.vocab_size, size=prompt_len).tolist()
    want[0] = min(model.vocab.special_ids)
    punct_ids = sorted(model.vocab.punctuation_ids)
    for slot, pos in enumerate(punctuation_positions(prompt_len)):
        want[pos] = punct_ids[slot % len(punct_ids)]
    assert model.prompt_token_ids(prompt_len) == want


def test_negative_seed_raises_value_error_without_hanging():
    # Splitting a negative seed into words by shifting never ends and grows
    # a list, so the child runs under a timeout and a 1 GiB address-space cap.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from adaptive_kv.model import Archetype, ModelConfig, SyntheticModel\n"
        "m = SyntheticModel(ModelConfig(1, 1, 16, 32, -3),"
        " {(0, 0): Archetype.DIFFUSE}, 0.97)\n"
        "try:\n"
        "    m.v_row(0, 0, 0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=30, env=env, check=True,
    )
    assert done.stdout.strip() == "expected non-negative integer"


def role_reads(model: SyntheticModel) -> dict:
    """Each role's read of layer 0, as ``read(head, pos)``."""
    return {
        "k": lambda head, pos: model.k_row(0, head, pos, TokenClass.OTHER, 8),
        "q": lambda head, pos: model.q_row(0, head, pos, 8),
        "v": lambda head, pos: model.v_row(0, head, pos),
    }


@pytest.mark.parametrize("role", ["k", "q", "v"])
def test_negative_positions_rejected_in_scalar_and_block_reads(role):
    read = role_reads(seeded_model(5))[role]
    reads = ((0, -1, -1), (np.arange(4), -1, -1), (0, np.array([3, -2, 0]), -2))
    for head, pos, bad in reads:
        with pytest.raises(ModelError, match=f"^position {bad} is negative$"):
            read(head, pos)
    # A rejected read leaves the stream where a fresh model's stands.
    assert read(1, 3).tobytes() == role_reads(seeded_model(5))[role](1, 3).tobytes()


@pytest.mark.parametrize("role", ["k", "q", "v"])
def test_heads_outside_the_grid_rejected_by_both_models(role):
    model = seeded_model(5)
    trace = TraceModel(record_trace(model, model.prompt_token_ids(8), 8))
    reads = (
        (4, 0),
        (-1, 1),
        (np.array([0, 4]), 2),
        (np.arange(4) - 1, np.array([[0], [1]])),
    )
    for read in (role_reads(model)[role], role_reads(trace)[role]):
        for head, pos in reads:
            # Head 4 at H=4 would otherwise alias row (pos + 1, head 0).
            with pytest.raises(ModelError, match=r"^head (4|-1) outside 0\.\.3$"):
                read(head, pos)


def layer_reads(model) -> dict:
    """Each role's read, as ``read(layer, head, pos)``."""
    return {
        "k": lambda layer, head, pos: model.k_row(
            layer, head, pos, TokenClass.OTHER, 8
        ),
        "q": lambda layer, head, pos: model.q_row(layer, head, pos, 8),
        "v": lambda layer, head, pos: model.v_row(layer, head, pos),
    }


@pytest.mark.parametrize("role", ["k", "q", "v"])
def test_layers_outside_the_grid_rejected_by_both_models(role):
    model = seeded_model(5)
    trace = TraceModel(record_trace(model, model.prompt_token_ids(8), 8))
    fresh = seeded_model(5)
    # Two heads, so that every layer, head and position below broadcast.
    heads = np.array([1, 3])
    for read in (layer_reads(fresh)[role], layer_reads(trace)[role]):
        for bad in (2, -1):
            for layer in (bad, np.array([0, bad]), np.array([[bad], [0]])):
                for head, pos in ((0, 1), (heads, 1), (heads, np.array([[0], [1]]))):
                    message = rf"^layer {bad} outside 0\.\.1$"
                    with pytest.raises(ModelError, match=message):
                        read(layer, head, pos)
    # No stream was made for a layer the model does not have.
    assert fresh._streams == {}


@pytest.mark.parametrize("role", ["k", "q", "v"])
def test_index_arrays_that_are_not_integers_rejected_by_both_models(role):
    model = seeded_model(5)
    trace = TraceModel(record_trace(model, model.prompt_token_ids(8), 8))
    fresh = seeded_model(5)
    heads = np.arange(4)
    for read in (layer_reads(fresh)[role], layer_reads(trace)[role]):
        for name, bad in (("layer", 0.0), ("head", 0.5), ("pos", 1.0), ("pos", True)):
            index = {"layer": 0, "head": heads, "pos": 1}
            index[name] = np.array([bad])
            message = rf"^{name} must hold integers, got (float64|bool)$"
            with pytest.raises(ModelError, match=message):
                read(index["layer"], index["head"], index["pos"])
    assert fresh._streams == {}


def test_reads_at_zero_d_index_arrays_copy_their_rows_out_of_both_models():
    model = seeded_model(5)
    trace = TraceModel(record_trace(model, model.prompt_token_ids(8), 8))
    for source in (model, trace):
        for role, read in layer_reads(source).items():
            want = read(1, 2, 3).tobytes()
            for index in ((np.array(1), np.array(2), np.array(3)), (1, 2, 3)):
                got = read(*index)
                got += 1.0
                assert read(1, 2, 3).tobytes() == want, (role, index)


def test_narrow_integer_index_arrays_read_the_rows_of_default_ones():
    # Position 100 of 4 heads is counter row 400, past an int8 or uint8.
    model = seeded_model(5)
    heads = np.arange(4)
    for dtype in (np.int8, np.uint8, np.uint64):
        index = (np.array([1], dtype), heads.astype(dtype), np.array([100], dtype))
        for role, read in layer_reads(model).items():
            assert read(*index).tobytes() == read(1, heads, 100).tobytes(), role


def test_class_codes_outside_the_classes_rejected_in_scalar_and_block_reads():
    model = seeded_model(5)
    heads = np.arange(4)
    for bad in (3, -1):
        reads = (
            (0, 1, bad),
            (heads, 1, np.int8(bad)),
            (heads, np.array([[0], [1]]), np.array([[2], [bad]], dtype=np.int8)),
        )
        for head, pos, klass in reads:
            with pytest.raises(ModelError, match=rf"^class code {bad} outside 0\.\.2$"):
                model.k_row(0, head, pos, klass, 8)


@pytest.mark.parametrize("head", [1, np.arange(4)], ids=["scalar", "block"])
def test_an_int_class_code_reads_its_class_bit_for_bit(head):
    model = seeded_model(5)
    for klass in TokenClass:
        by_enum = model.k_row(0, head, 3, klass, 8)
        assert model.k_row(0, head, 3, int(klass), 8).tobytes() == by_enum.tobytes()
    # The special indicator is planted for an int code too.
    assert np.all(model.k_row(0, head, 3, int(TokenClass.SPECIAL), 8)[..., 0] == 1.0)


def test_trace_model_block_rejects_positions_outside_the_trace():
    model = seeded_model(5)
    trace = TraceModel(record_trace(model, model.prompt_token_ids(6), 6))
    heads = np.arange(model.config.num_heads)
    for pos in (-1, 6, np.array([[0], [-1]]), np.array([[5], [6]])):
        for read in (
            lambda: trace.k_row(0, heads, pos, 2, 6),
            lambda: trace.q_row(0, heads, pos, 6),
            lambda: trace.v_row(0, heads, pos),
        ):
            with pytest.raises(ModelError, match="outside trace length 6"):
                read()


@st.composite
def switching_models(draw):
    """A seeded model with random archetypes, some switching at decode steps
    that fall inside ``n`` positions, with a prompt of ``prompt_len <= n``."""
    seed = draw(SEEDS)
    d, heads = draw(st.integers(6, 40)), draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    prompt_len = draw(st.integers(1, n))
    config = ModelConfig(
        num_layers=2, num_heads=heads, head_dim=d, vocab_size=32, seed=seed
    )
    archetypes = st.sampled_from(list(Archetype))
    plan = {}
    for key in config.head_grid():
        if draw(st.booleans()):
            step = draw(st.integers(1, n - prompt_len + 1))
            plan[key] = HeadPlan(draw(archetypes), draw(archetypes), step)
        else:
            plan[key] = HeadPlan(draw(archetypes))
    tokens = draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
    return SyntheticModel(config, plan, DOMINANCE), tokens, prompt_len


def scalar_trace(model: SyntheticModel, tokens: list[int], prompt_len: int) -> TraceModel:
    """A trace of ``model``'s rows, each read alone."""
    annotations = [
        TokenAnnotation(pos, tid, model.vocab.classify_id(tid))
        for pos, tid in enumerate(tokens)
    ]
    blocks = {
        (layer, head): [
            TraceBlock(
                a.position,
                model.k_row(layer, head, a.position, a.klass, prompt_len),
                model.v_row(layer, head, a.position),
                model.q_row(layer, head, a.position, prompt_len),
            )
            for a in annotations
        ]
        for layer, head in model.config.head_grid()
    }
    return TraceModel(AttentionTrace(model.config, annotations, blocks))


@settings(max_examples=60, deadline=None)
@given(switching_models(), st.randoms())
def test_block_equals_its_rows_read_one_at_a_time(drawn, rnd):
    synthetic, tokens, prompt_len = drawn
    cfg = synthetic.config
    n, heads = len(tokens), cfg.num_heads
    classes = [synthetic.vocab.classify_id(t) for t in tokens]
    codes = np.array(classes, dtype=np.int8)
    trace = scalar_trace(synthetic, tokens, prompt_len)
    step = rnd.randrange(n)
    # (layer, head, pos, class) of each call shape: one layer's decode step
    # over every head, the prompt pass, and scattered rows in any order with
    # repeats, in one layer; a whole decode step over every layer and head;
    # and scattered (layer, head, pos) picks.
    def picks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layer, head and position arrays of one to nine random rows."""
        count, layers = rnd.randint(1, 9), cfg.num_layers
        rows = [(rnd.randrange(layers), rnd.randrange(heads), rnd.randrange(n))
                for _ in range(count)]
        return tuple(np.array(column) for column in zip(*rows))

    _, one_heads, one_pos = picks()
    layers, scattered_heads, scattered_pos = picks()
    shapes = [
        (rnd.randrange(cfg.num_layers), np.arange(heads), step, codes[step]),
        (rnd.randrange(cfg.num_layers), np.arange(heads), np.arange(n)[:, None],
         codes[:, None]),
        (rnd.randrange(cfg.num_layers), one_heads, one_pos, codes[one_pos]),
        (np.arange(cfg.num_layers)[:, None], np.arange(heads), step, codes[step]),
        (layers, scattered_heads, scattered_pos, codes[scattered_pos]),
    ]
    for model in (synthetic, trace):
        for layer, head, pos, klass in shapes:
            blocks = {
                "k": model.k_row(layer, head, pos, klass, prompt_len),
                "q": model.q_row(layer, head, pos, prompt_len),
                "v": model.v_row(layer, head, pos),
            }
            shape = np.broadcast_shapes(np.shape(layer), np.shape(head), np.shape(pos))
            cells = list(np.ndindex(shape))
            for cell in rnd.sample(cells, len(cells)):
                one = int(np.broadcast_to(layer, shape)[cell])
                h = int(np.broadcast_to(head, shape)[cell])
                p = int(np.broadcast_to(pos, shape)[cell])
                alone = {
                    "k": model.k_row(one, h, p, classes[p], prompt_len),
                    "q": model.q_row(one, h, p, prompt_len),
                    "v": model.v_row(one, h, p),
                }
                for role, block in blocks.items():
                    assert block.shape == shape + (cfg.head_dim,)
                    assert block[cell].tobytes() == alone[role].tobytes(), (role, cell)


@settings(max_examples=60, deadline=None)
@given(switching_models(), st.randoms())
def test_block_rows_match_their_philox_counters_and_planted_dims(drawn, rnd):
    model, tokens, prompt_len = drawn
    cfg = model.config
    n, layers, heads = len(tokens), cfg.num_layers, cfg.num_heads
    codes = np.array([model.vocab.classify_id(t) for t in tokens], dtype=np.int8)
    picks = [(rnd.randrange(layers), rnd.randrange(heads), rnd.randrange(n))
             for _ in range(rnd.randint(1, 9))]
    # A decode step over every layer and head, one layer's prompt pass, and
    # scattered (layer, head, pos) picks.
    blocks = [
        (np.arange(layers)[:, None], np.arange(heads), rnd.randrange(n)),
        (rnd.randrange(layers), np.arange(heads), np.arange(n)[:, None]),
        tuple(np.array(column) for column in zip(*picks)),
    ]
    for layer, head, pos in blocks:
        shape = np.broadcast_shapes(np.shape(layer), np.shape(head), np.shape(pos))
        for role in (_ROLE_KEY, _ROLE_QUERY, _ROLE_VALUE):
            block = read_row(model, role, layer, head, pos, codes[pos], prompt_len)
            assert block.shape == shape + (cfg.head_dim,)
            for cell in np.ndindex(shape):
                one, h, p = (int(np.broadcast_to(x, shape)[cell]) for x in (layer, head, pos))
                want = reference_row(model, role, one, h, p, TokenClass(codes[p]), prompt_len)
                assert block[cell].tobytes() == want.tobytes(), (role, cell)


def test_record_trace_reads_each_role_of_a_layer_in_one_block(model):
    calls = []

    class Counting:
        config, vocab = model.config, model.vocab

        def __getattr__(self, name):
            calls.append(name)
            return getattr(model, name)

    tokens = model.prompt_token_ids(PROMPT_LEN)
    recorded = record_trace(Counting(), tokens, PROMPT_LEN)
    assert sorted(calls) == sorted(["k_row", "q_row", "v_row"] * CONFIG.num_layers)
    alone = scalar_trace(model, tokens, PROMPT_LEN)
    replayed = TraceModel(recorded)
    for role in ("_k", "_v", "_q"):
        for rows, rows_alone in zip(getattr(replayed, role), getattr(alone, role), strict=True):
            assert rows.tobytes() == rows_alone.tobytes()


WINDOW = _WINDOW_POSITIONS


@st.composite
def row_reads(draw, heads: int):
    """One read of a role and layer: a row, a decode step over every head,
    a span of positions over every head (up to three windows long), or
    scattered (head, pos) pairs; positions jump back and forth and spans
    straddle window edges."""
    role, layer = draw(st.sampled_from("kqv")), draw(st.integers(0, 1))
    pos = st.integers(0, 4 * WINDOW)
    kind = draw(st.sampled_from(["row", "step", "span", "scatter"]))
    if kind == "row":
        return role, layer, draw(st.integers(0, heads - 1)), draw(pos)
    if kind == "step":
        return role, layer, np.arange(heads), draw(pos)
    if kind == "span":
        start, count = draw(pos), draw(st.integers(1, 3 * WINDOW))
        return role, layer, np.arange(heads), np.arange(start, start + count)[:, None]
    pairs = draw(
        st.lists(st.tuples(st.integers(0, heads - 1), pos), min_size=1, max_size=6)
    )
    return role, layer, np.array([h for h, _ in pairs]), np.array([p for _, p in pairs])


@st.composite
def read_sequences(draw):
    seed, heads, d = draw(SEEDS), draw(st.integers(1, 4)), draw(st.integers(6, 20))
    reads = draw(st.lists(row_reads(heads), min_size=1, max_size=10))
    # Class codes of every position a read can reach.
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    codes = rng.integers(0, 3, 8 * WINDOW).astype(np.int8)
    return seed, heads, d, draw(st.integers(1, 4 * WINDOW)), codes, reads


def read_rows(model, read, codes, prompt_len) -> np.ndarray:
    role, layer, head, pos = read
    if role == "v":
        return model.v_row(layer, head, pos)
    if role == "q":
        return model.q_row(layer, head, pos, prompt_len)
    if isinstance(head, np.ndarray) or isinstance(pos, np.ndarray):
        return model.k_row(layer, head, pos, codes[pos], prompt_len)
    return model.k_row(layer, head, pos, TokenClass(codes[pos]), prompt_len)


@settings(max_examples=80, deadline=None)
@given(read_sequences())
def test_window_reads_equal_fresh_reads_and_own_their_rows(drawn):
    seed, heads, d, prompt_len, codes, reads = drawn
    model = seeded_model(seed, heads, d)
    window_rows = WINDOW * heads
    returned = []
    for read in reads + reads[::-1]:
        windows = {
            key: (stream.start, stream.stop, np.asarray(stream.window).tobytes())
            for key, stream in model._streams.items()
        }
        got = read_rows(model, read, codes, prompt_len)
        want = read_rows(seeded_model(seed, heads, d), read, codes, prompt_len)
        assert got.tobytes() == want.tobytes()
        assert got.shape == want.shape
        assert not any(np.shares_memory(got, earlier) for earlier in returned)
        returned.append(got)
        # A read whose rows span more than a window draws its own span and
        # leaves every window as it was; no stream ever holds more than W
        # positions.
        _, _, head, pos = read
        span = (np.ptp(pos) * heads) + np.ptp(head) + 1
        if span > window_rows:
            for key, window in windows.items():
                stream = model._streams[key]
                window_now = np.asarray(stream.window).tobytes()
                assert (stream.start, stream.stop, window_now) == window
        assert all(
            s.window is None or len(s.window) <= window_rows
            for s in model._streams.values()
        )
        # Writing into a returned row leaves a re-read unchanged.
        got += 1.0
        again = read_rows(model, read, codes, prompt_len)
        assert again.tobytes() == want.tobytes()
