from __future__ import annotations

import gc
import io
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from adaptive_kv.engine import (
    GenerationConfig,
    Nucleus,
    generate,
    generate_fixed_baseline,
    reference_generate,
)
from adaptive_kv.metrics import profile_rows
from adaptive_kv.policies import full_policy
from adaptive_kv.model import ModelConfig
from adaptive_kv.profiler import ProfilerConfig
from adaptive_kv.tokens import TokenAnnotation, TokenClass
from adaptive_kv.trace import (
    MAGIC,
    AttentionTrace,
    TraceBlock,
    TraceDimensionError,
    TraceError,
    TraceHeaderError,
    TraceModel,
    TraceTruncatedError,
    read_trace,
    record_trace,
    write_trace,
)


def build_trace(rng: np.random.Generator, positions: int = 5) -> AttentionTrace:
    config = ModelConfig(num_layers=2, num_heads=2, head_dim=4, vocab_size=16, seed=-3)
    classes = [TokenClass.SPECIAL] + [TokenClass.OTHER] * (positions - 1)
    tokens = [
        TokenAnnotation(pos, int(rng.integers(0, 16)), classes[pos])
        for pos in range(positions)
    ]
    blocks = {}
    for key in config.head_grid():
        blocks[key] = [
            TraceBlock(
                step=pos,
                k=rng.normal(size=4),
                v=rng.normal(size=4),
                q=rng.normal(size=4),
            )
            for pos in range(positions)
        ]
    return AttentionTrace(config, tokens, blocks)


def assert_traces_equal(a: AttentionTrace, b: AttentionTrace):
    assert a.config == b.config
    assert a.tokens == b.tokens
    assert sorted(a.blocks) == sorted(b.blocks)
    for key in a.blocks:
        for ba, bb in zip(a.blocks[key], b.blocks[key]):
            assert ba.step == bb.step
            # bit-for-bit on every numeric field
            assert ba.k.tobytes() == bb.k.tobytes()
            assert ba.v.tobytes() == bb.v.tobytes()
            assert ba.q.tobytes() == bb.q.tobytes()


def test_binary_round_trip_lossless(tmp_path):
    trace = build_trace(np.random.default_rng(0))
    path = tmp_path / "t.akvt"
    write_trace(trace, path)
    assert_traces_equal(trace, read_trace(path))


def test_binary_round_trip_is_byte_stable(tmp_path):
    trace = build_trace(np.random.default_rng(1))
    p1, p2 = tmp_path / "a.akvt", tmp_path / "b.akvt"
    write_trace(trace, p1)
    write_trace(read_trace(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_payload_distinct_error(tmp_path):
    trace = build_trace(np.random.default_rng(3))
    buf = io.BytesIO()
    write_trace(trace, buf)
    data = buf.getvalue()
    for cut in (len(data) - 7, len(data) // 2, 8):
        with pytest.raises(TraceTruncatedError, match="truncated payload"):
            read_trace(io.BytesIO(data[:cut]))


def test_bad_magic_is_header_error():
    with pytest.raises(TraceHeaderError, match="magic"):
        read_trace(io.BytesIO(b"NOPE" + b"\x00" * 40))


def test_zero_layer_header_rejected(tmp_path):
    trace = build_trace(np.random.default_rng(4))
    buf = io.BytesIO()
    write_trace(trace, buf)
    data = bytearray(buf.getvalue())
    data[6:10] = (0).to_bytes(4, "little")  # num_layers field
    with pytest.raises(TraceHeaderError, match="num_layers"):
        read_trace(io.BytesIO(bytes(data)))


@pytest.mark.parametrize("code", [3, 255])
def test_unknown_class_code_is_header_error(code):
    buf = io.BytesIO()
    write_trace(build_trace(np.random.default_rng(4)), buf)
    data = bytearray(buf.getvalue())
    # Token 1's class byte: after the 34-byte header and token 0's 5 bytes.
    data[34 + 5 + 4] = code
    with pytest.raises(TraceHeaderError, match=f"^token 1: unknown class code {code}$"):
        read_trace(io.BytesIO(bytes(data)))
    # Each class byte reads back as the TokenClass of that code.
    data[34 + 5 + 4] = TokenClass.PUNCTUATION
    assert read_trace(io.BytesIO(bytes(data))).tokens[1].klass is TokenClass.PUNCTUATION


def test_dimension_mismatch_rejected():
    config = ModelConfig(num_layers=1, num_heads=1, head_dim=4, vocab_size=16, seed=0)
    tokens = [TokenAnnotation(0, 1, TokenClass.SPECIAL)]
    bad = [TraceBlock(step=0, k=np.zeros(3), v=np.zeros(4), q=np.zeros(4))]
    with pytest.raises(TraceDimensionError, match="K row"):
        AttentionTrace(config, tokens, {(0, 0): bad})


def test_steps_strictly_increasing_enforced():
    config = ModelConfig(num_layers=1, num_heads=1, head_dim=2, vocab_size=16, seed=0)
    tokens = [TokenAnnotation(0, 1, TokenClass.SPECIAL)]
    rows = dict(k=np.zeros(2), v=np.zeros(2), q=np.zeros(2))
    blocks = [TraceBlock(step=1, **rows), TraceBlock(step=1, **rows)]
    with pytest.raises(TraceDimensionError, match="strictly increasing"):
        AttentionTrace(config, tokens, {(0, 0): blocks})


def test_read_rows_are_read_only_views_of_one_payload():
    buf = io.BytesIO()
    write_trace(build_trace(np.random.default_rng(6)), buf)
    trace = read_trace(io.BytesIO(buf.getvalue()))
    rows = [r for entries in trace.blocks.values() for b in entries for r in (b.k, b.v, b.q)]
    assert len({id(row.base) for row in rows}) == 1
    assert len(rows[0].base) == len(buf.getvalue())
    assert not any(row.flags.writeable for row in rows)


def test_trace_model_copies_rows_and_drops_the_trace(small_model):
    prompt = small_model.prompt_token_ids(12)
    trace = record_trace(small_model, prompt, len(prompt))
    model = TraceModel(trace)
    for (layer, head), entries in trace.blocks.items():
        for b in entries:
            k = model.k_row(layer, head, b.step, TokenClass.OTHER, len(prompt))
            assert k.tobytes() == b.k.tobytes()
            assert model.v_row(layer, head, b.step).tobytes() == b.v.tobytes()
            assert model.q_row(layer, head, b.step, len(prompt)).tobytes() == b.q.tobytes()
    assert model.prompt_token_ids(12) == prompt
    # The model holds its rows in its own arrays, not the trace's blocks.
    ref = weakref.ref(trace)
    del trace, entries, b
    gc.collect()
    assert ref() is None


def test_trace_model_requires_complete_grid():
    trace = build_trace(np.random.default_rng(5))
    del trace.blocks[(1, 1)]
    with pytest.raises(TraceDimensionError, match=r"\(layer=1, head=1\)"):
        TraceModel(trace)


def test_trace_replay_reproduces_synthetic_run(small_model, tmp_path):
    # Record a reference run into a trace, then drive the adaptive engine
    # from the trace and from the live model; outcomes must agree.
    prompt_len, steps = 24, 8
    prompt = small_model.prompt_token_ids(prompt_len)
    ref = reference_generate(small_model, prompt, GenerationConfig(max_new_tokens=steps))
    trace = record_trace(small_model, prompt + ref.tokens[: steps - 1], prompt_len)
    path = tmp_path / "run.akvt"
    write_trace(trace, path)

    replay = TraceModel(read_trace(path))
    cfg = ProfilerConfig(recovery_threshold=0.95)
    gen = GenerationConfig(max_new_tokens=steps)
    from_model = generate(small_model, prompt, cfg, gen)
    from_trace = generate(replay, prompt, cfg, gen)
    assert from_trace.tokens == from_model.tokens
    assert profile_rows(from_trace.profile) == profile_rows(from_model.profile)


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"


def test_golden_fixture_replay():
    # The benchmark's pinned fixture: any token drift fails here first.
    golden = json.loads((FIXTURE_DIR / "golden.json").read_text(encoding="utf-8"))
    model = TraceModel(read_trace(FIXTURE_DIR / "small.akvt"))
    prompt = model.prompt_token_ids(golden["prompt_len"])
    greedy = GenerationConfig(golden["steps"])
    nucleus = GenerationConfig(golden["steps"], Nucleus(seed=golden["nucleus_seed"]))
    cfg = ProfilerConfig()
    assert generate(model, prompt, cfg, greedy).tokens == golden["adaptive_greedy"]
    assert (
        generate_fixed_baseline(model, prompt, full_policy(), greedy).tokens
        == golden["full_greedy"]
    )
    assert generate(model, prompt, cfg, nucleus).tokens == golden["adaptive_nucleus"]


def _mutate_binary(data: bytes, rng: np.random.Generator) -> bytes:
    """``data`` with bytes after the magic flipped, inserted, deleted or cut off."""
    at = int(rng.integers(len(MAGIC), len(data)))
    span = int(rng.integers(1, 9))
    noise = rng.integers(0, 256, size=span, dtype=np.uint8).tobytes()
    kind = int(rng.integers(0, 4))
    if kind == 0:  # overwrite a span
        return data[:at] + noise + data[at + span :]
    if kind == 1:  # insert a span
        return data[:at] + noise + data[at:]
    if kind == 2:  # delete a span
        return data[:at] + data[at + span :]
    return data[:at]  # cut the file short


def test_binary_reader_raises_only_trace_errors():
    buf = io.BytesIO()
    write_trace(build_trace(np.random.default_rng(9), positions=3), buf)
    data = buf.getvalue()
    rng = np.random.default_rng(2310)
    for _ in range(2000):
        try:
            read_trace(io.BytesIO(_mutate_binary(data, rng)))
        except TraceError:
            pass


def faulty_blocks(faults: dict[int, dict[str, np.ndarray]], count: int = 6):
    """Blocks at steps 0..count-1 with finite rows, except where ``faults`` says."""
    rows = dict(k=np.ones(2), v=np.ones(2), q=np.ones(2))
    return [TraceBlock(step=i, **{**rows, **faults.get(i, {})}) for i in range(count)]


def test_non_finite_row_in_middle_block_rejected():
    config = ModelConfig(num_layers=1, num_heads=2, head_dim=2, vocab_size=16, seed=0)
    blocks = {
        (0, 0): faulty_blocks({}),
        (0, 1): faulty_blocks({3: dict(v=np.array([0.0, np.inf]))}),
    }
    with pytest.raises(
        TraceDimensionError,
        match=r"^V row at \(layer=0, head=1, step=3\) has non-finite entries$",
    ):
        AttentionTrace(config, [], blocks)


def test_first_fault_wins_in_block_then_row_order():
    config = ModelConfig(num_layers=1, num_heads=1, head_dim=2, vocab_size=16, seed=0)
    nan_row = np.array([np.nan, 0.0])
    # A non-finite Q at step 2 comes before a short K at step 4.
    blocks = faulty_blocks({2: dict(q=nan_row), 4: dict(k=np.ones(3))})
    with pytest.raises(TraceDimensionError, match=r"^Q row .*step=2\) has non-finite"):
        AttentionTrace(config, [], {(0, 0): blocks})
    # Within one block the K shape is checked before a non-finite V.
    blocks = faulty_blocks({1: dict(k=np.ones(3), v=nan_row)})
    with pytest.raises(
        TraceDimensionError, match=r"^K row .*step=1\) has length \(3,\)"
    ):
        AttentionTrace(config, [], {(0, 0): blocks})
    # A shape fault after a non-finite row in an earlier block loses to it.
    blocks = faulty_blocks({1: dict(k=nan_row), 3: dict(v=np.ones(1))})
    with pytest.raises(TraceDimensionError, match=r"^K row .*step=1\) has non-finite"):
        AttentionTrace(config, [], {(0, 0): blocks})
    # A step fault is reported before the same block's rows.
    blocks = faulty_blocks({2: dict(q=nan_row)})
    blocks[2] = TraceBlock(step=1, k=blocks[2].k, v=blocks[2].v, q=blocks[2].q)
    with pytest.raises(TraceDimensionError, match="strictly increasing.*step=1"):
        AttentionTrace(config, [], {(0, 0): blocks})
