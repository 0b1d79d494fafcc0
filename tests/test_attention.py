from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adaptive_kv.attention import (
    AttentionError,
    AttentionMap,
    causal_attention,
    softmax_rows,
    softmax_vector,
)


def test_softmax_symmetric_row():
    out = softmax_rows([[0.0, 0.0]])
    assert out[0] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_softmax_log_two_row():
    out = softmax_rows([[math.log(2.0), 0.0]])
    assert out[0] == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)


def test_softmax_huge_logit_no_overflow():
    out = softmax_rows([[1000.0, 0.0]])
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert out[0, 1] < 1e-300


def test_softmax_empty_input():
    with pytest.raises(AttentionError, match="empty input"):
        softmax_rows(np.zeros((0, 0)))
    with pytest.raises(AttentionError, match="empty input"):
        softmax_vector([])


def test_softmax_causal_lengths_mask_exact_zero():
    out = softmax_rows(np.ones((3, 3)), causal_lengths=[1, 2, 3])
    assert out[0, 1] == 0.0 and out[0, 2] == 0.0 and out[1, 2] == 0.0
    for i in range(3):
        assert out[i].sum() == pytest.approx(1.0, abs=1e-12)


def test_causal_attention_single_token():
    V = np.array([[4.0, -1.0]])
    A = causal_attention(np.array([[1.0, 0.0]]), np.array([[2.0, 3.0]]), 2)
    assert A.matrix.shape == (1, 1) and A.matrix[0, 0] == 1.0
    assert (A.matrix @ V)[0] == pytest.approx(V[0])


def test_causal_attention_two_by_two_hand_evaluated():
    # Row 1 logits are [q1.k0, q1.k1] / sqrt(1) = [2, -2]; evaluate the
    # softmax by hand with scalar math and check output = A @ V.
    Q = np.array([[1.0], [2.0]])
    K = np.array([[1.0], [-1.0]])
    V = np.array([[3.0], [5.0]])
    A = causal_attention(Q, K, 1)
    w0 = math.exp(2.0) / (math.exp(2.0) + math.exp(-2.0))
    w1 = math.exp(-2.0) / (math.exp(2.0) + math.exp(-2.0))
    assert A.matrix[0] == pytest.approx([1.0, 0.0], abs=1e-15)
    assert A.matrix[1] == pytest.approx([w0, w1], abs=1e-15)
    assert (A.matrix @ V)[1, 0] == pytest.approx(3.0 * w0 + 5.0 * w1, abs=1e-12)


def test_causal_attention_rows_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 6))
        Q = rng.normal(size=(n, d))
        K = rng.normal(size=(n, d))
        A = causal_attention(Q, K, d)
        assert np.abs(A.matrix.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.all(A.matrix >= 0.0)
        assert np.all(np.triu(A.matrix, k=1) == 0.0)


def test_causal_attention_dimension_errors_name_operand():
    K = np.zeros((2, 3))
    with pytest.raises(AttentionError, match="Q has 3 rows, expected 2"):
        causal_attention(np.zeros((3, 3)), K, 3)
    with pytest.raises(AttentionError, match="K has 3 columns"):
        causal_attention(np.zeros((2, 2)), K, 2)
    with pytest.raises(AttentionError, match="Q has 3 columns"):
        causal_attention(np.zeros((2, 3)), np.zeros((2, 2)), 2)


def test_attention_map_invariants_enforced():
    with pytest.raises(AttentionError, match="square"):
        AttentionMap(np.ones((2, 3)) / 3.0)
    with pytest.raises(AttentionError, match="sum to 1"):
        AttentionMap(np.array([[0.4, 0.0], [0.5, 0.5]]))
    with pytest.raises(AttentionError, match="causal"):
        AttentionMap(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(AttentionError, match="negative"):
        AttentionMap(np.array([[1.0, 0.0], [-0.5, 1.5]]))
    with pytest.raises(AttentionError, match="non-finite"):
        AttentionMap(np.array([[np.nan, 0.0], [0.5, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_is_reported_before_negative(bad):
    # Each matrix also has a negative entry, so the finiteness check must
    # come first and must see NaN and +-inf wherever they sit.
    m = np.array([[1.0, 0.0], [-0.5, 1.5]])
    m[1, 1] = bad
    with pytest.raises(AttentionError, match="attention map contains non-finite"):
        AttentionMap(m)
    with pytest.raises(AttentionError, match="softmax input contains non-finite"):
        softmax_rows(m, causal_lengths=[1, 2])
    with pytest.raises(AttentionError, match="Q contains non-finite"):
        causal_attention(m, np.ones((2, 2)), 2)
    with pytest.raises(AttentionError, match="K contains non-finite"):
        causal_attention(np.ones((2, 2)), m, 2)


def reference_causal_softmax(logits, lengths):
    """Row-by-row causal softmax, kept as the bitwise reference."""
    out = np.zeros_like(logits)
    for i, length in enumerate(lengths):
        row = logits[i, :length]
        exp = np.exp(row - row.max())
        out[i, :length] = exp / exp.sum()
    return out


@pytest.mark.parametrize(
    "n", list(range(1, 21)) + [127, 128, 129, 257, 512, 1024, 1100]
)
def test_causal_softmax_is_bitwise_the_per_row_softmax(n):
    rng = np.random.default_rng(n)
    logits = rng.normal(scale=4.0, size=(n, n))
    before = logits.copy()
    lengths = range(1, n + 1)
    assert np.array_equal(
        softmax_rows(logits, causal_lengths=lengths),
        reference_causal_softmax(logits, lengths),
    )
    assert np.array_equal(logits, before)
    # Lengths other than i + 1, over more columns than rows.
    wide = rng.normal(scale=4.0, size=(n, n + 7))
    lengths = rng.integers(1, n + 8, size=n)
    assert np.array_equal(
        softmax_rows(wide, causal_lengths=lengths),
        reference_causal_softmax(wide, lengths),
    )


def test_causal_softmax_is_bitwise_past_the_reduction_buffer():
    # Rows longer than numpy's 8192-element buffer: a buffered masked sum
    # would group the terms differently from the per-row sum.
    logits = np.random.default_rng(9000).normal(scale=4.0, size=(3, 9000))
    lengths = [9000, 8999, 4503]
    assert np.array_equal(
        softmax_rows(logits, causal_lengths=lengths),
        reference_causal_softmax(logits, lengths),
    )


def test_causal_lengths_are_checked_row_by_row():
    with pytest.raises(AttentionError, match="row 1: causal length 0 out of range"):
        softmax_rows(np.ones((3, 3)), causal_lengths=[1, 0, 4])
    with pytest.raises(AttentionError, match="causal_lengths has 2 entries for 3 rows"):
        softmax_rows(np.ones((3, 3)), causal_lengths=[1, 2])


@pytest.mark.parametrize(
    "n, at",
    [
        (129, (0, 128)),
        (200, (127, 128)),
        (2, (0, 1)),
        # Right of the first row block, far from any diagonal block.
        (1024, (0, 1023)),
        # Inside the ragged last diagonal block (rows 1024..1099).
        (1100, (1025, 1030)),
    ],
)
def test_attention_map_rejects_one_entry_above_the_diagonal(n, at):
    m = np.eye(n)
    m[at] = 1e-12
    with pytest.raises(AttentionError, match="causal"):
        AttentionMap(m)
    m[at] = -0.0
    assert np.array_equal(AttentionMap(m).matrix, np.eye(n))


def test_attention_map_is_immutable():
    A = AttentionMap(np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        A.matrix[0, 0] = 2.0


def test_causal_attention_peak_memory_is_about_one_map():
    P = 1024
    rng = np.random.default_rng(0)
    Q, K = rng.normal(size=(P, 32)), rng.normal(size=(P, 32))
    tracemalloc.start()
    try:
        causal_attention(Q, K, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The map itself is 1.0; a P x P temporary beside it would reach 2.0.
    assert peak <= 1.3 * P * P * 8, peak / (P * P * 8)


# SHA-256 of ``causal_attention(Q, K, 32).matrix`` bytes for Q and K drawn
# from ``default_rng(P)``, under one BLAS thread (the benchmark's setting:
# at P=300 the product's bits depend on the BLAS thread count). Any change
# to the prompt pass's arithmetic, such as a blocked Q K^T product, shows
# here; such a change must re-record these alongside the CLI goldens.
CAUSAL_ATTENTION_SHA256 = {
    1: "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    129: "84f39b8e57e57f83052419bd94d06fbaba91b9c0238ea760cb8e94a61a4fb4c5",
    300: "84c29b034164364e42fa9a113c625db942001481ec0db8ed713cbcaced4930db",
    1024: "f3e440a09933422d14efca64c93b04a5153c6581f8d43d206ecee5128327e927",
}

_HASH_SCRIPT = """
import hashlib, sys
import numpy as np
from adaptive_kv.attention import causal_attention
for n in map(int, sys.argv[1:]):
    rng = np.random.default_rng(n)
    A = causal_attention(rng.normal(size=(n, 32)), rng.normal(size=(n, 32)), 32)
    print(n, hashlib.sha256(A.matrix.tobytes()).hexdigest())
"""


def test_causal_attention_bits_are_pinned():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run(
        [sys.executable, "-c", _HASH_SCRIPT, *map(str, CAUSAL_ATTENTION_SHA256)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    got = {int(n): digest for n, digest in (line.split() for line in out.splitlines())}
    assert got == CAUSAL_ATTENTION_SHA256
