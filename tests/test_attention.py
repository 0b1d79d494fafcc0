from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_kv.attention import (
    BLOCK_ROWS,
    AttentionError,
    PromptStats,
    causal_attention,
    softmax_rows,
    softmax_vector,
)
from conftest import causal_rows, explicit_map


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
    stats = causal_attention(np.array([[1.0, 0.0]]), np.array([[2.0, 3.0]]), 2)
    assert stats.colsum.tolist() == [1.0] and stats.last_row.tolist() == [1.0]
    assert stats.last_row @ V == pytest.approx(V[0])


def test_causal_attention_two_by_two_hand_evaluated():
    # Row 1 logits are [q1.k0, q1.k1] / sqrt(1) = [2, -2], exact in float32;
    # less their max they are [0, -4]. Evaluate the softmax by hand with
    # scalar math on the float32 exponentials, exp(0) = 1 and exp(-4) (which
    # float32 rounds correctly), and check output = last_row @ V.
    Q = np.array([[1.0], [2.0]])
    K = np.array([[1.0], [-1.0]])
    V = np.array([[3.0], [5.0]])
    stats = causal_attention(Q, K, 1)
    e = float(np.float32(math.exp(-4.0)))
    w0, w1 = 1.0 / (1.0 + e), e / (1.0 + e)
    # Row 0 sees only key 0, so it adds 1 to column 0.
    assert stats.colsum == pytest.approx([1.0 + w0, w1], abs=1e-15)
    assert stats.last_row == pytest.approx([w0, w1], abs=1e-15)
    assert (stats.last_row @ V)[0] == pytest.approx(3.0 * w0 + 5.0 * w1, abs=1e-12)


def test_causal_attention_rows_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 6))
        Q = rng.normal(size=(n, d))
        K = rng.normal(size=(n, d))
        stats = causal_attention(Q, K, d)
        # Every row sums to 1, so the column sums total n.
        assert abs(stats.colsum.sum() - n) <= 1e-9 * n
        assert abs(stats.last_row.sum() - 1.0) <= 1e-9
        assert np.all(stats.colsum >= 0.0) and np.all(stats.last_row >= 0.0)


def test_causal_attention_dimension_errors_name_operand():
    K = np.zeros((2, 3))
    with pytest.raises(AttentionError, match="Q has 3 rows, expected 2"):
        causal_attention(np.zeros((3, 3)), K, 3)
    with pytest.raises(AttentionError, match="K has 3 columns"):
        causal_attention(np.zeros((2, 2)), K, 2)
    with pytest.raises(AttentionError, match="Q has 3 columns"):
        causal_attention(np.zeros((2, 3)), np.zeros((2, 2)), 2)


def test_prompt_stats_invariants_enforced():
    half = np.array([0.5, 0.5])
    with pytest.raises(AttentionError, match="colsum must be a nonempty vector"):
        PromptStats(np.ones((2, 2)), half)
    with pytest.raises(AttentionError, match="last_row must be a nonempty vector"):
        PromptStats(np.ones(1), np.ones(0))
    with pytest.raises(AttentionError, match="last_row has 1 entries, expected 2"):
        PromptStats(np.ones(2), np.ones(1))
    with pytest.raises(AttentionError, match="total 1.5, expected 2"):
        PromptStats(np.array([1.0, 0.5]), half)
    with pytest.raises(AttentionError, match="negative"):
        PromptStats(np.array([2.5, -0.5]), half)
    with pytest.raises(AttentionError, match="non-finite"):
        PromptStats(np.array([np.nan, 1.0]), half)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_is_reported_before_negative(bad):
    # Each input also has a negative entry, so the finiteness check must
    # come first and must see NaN and +-inf wherever they sit.
    with pytest.raises(AttentionError, match="column sums contain non-finite"):
        PromptStats(np.array([-0.5, bad, 2.5]), np.full(3, 1.0 / 3.0))
    m = np.array([[1.0, 0.0], [-0.5, 1.5]])
    m[1, 1] = bad
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
def test_no_mass_lands_above_the_diagonal(n, at):
    # Key j is aimed at query i < j, so a leaky causal mask would move
    # almost all of row i's mass onto column j.
    i, j = at
    rng = np.random.default_rng(n)
    Q, K = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    K[j] = 40.0 * Q[i]
    M = explicit_map(Q, K)
    stats = causal_attention(Q, K, 8)
    np.testing.assert_allclose(stats.colsum, M.sum(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(stats.last_row, M[-1], rtol=0, atol=1e-12)


def test_prompt_stats_are_immutable():
    stats = causal_attention(np.ones((3, 2)), np.ones((3, 2)), 2)
    for arr in (stats.colsum, stats.last_row):
        with pytest.raises(ValueError):
            arr[0] = 2.0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 129, 300, 1100]), st.integers(0, 2**32 - 1))
def test_stats_equal_the_explicit_maps_column_sums_and_last_row(n, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 17))
    Q = rng.normal(scale=2.0, size=(n, d))
    K = rng.normal(size=(n, d))
    M = explicit_map(Q, K)
    stats = causal_attention(Q, K, d)
    np.testing.assert_allclose(stats.colsum, M.sum(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(stats.last_row, M[-1], rtol=0, atol=1e-12)


def test_stats_are_bitwise_the_explicit_maps_when_products_are_exact():
    # Dyadic entries make every dot product exact, so the blocked and the
    # whole-map Q K^T agree bit for bit at every size and thread count;
    # then each column is summed in the same row order.
    rng = np.random.default_rng(3)
    for n in (1, 127, 128, 129, 300, 1100):
        Q, K = (rng.integers(-8, 9, size=(n, 8)) / 4.0 for _ in range(2))
        M = explicit_map(Q, K, block_rows=n)
        stats = causal_attention(Q, K, 8)
        assert np.array_equal(stats.colsum, M.sum(axis=0)), n
        assert np.array_equal(stats.last_row, M[-1]), n


def row_order_oracle(Q: np.ndarray, K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column sums and last row of the causal map, one query row at a time.

    The rows are ``causal_rows``': the same ``BLOCK_ROWS``-row float32
    products the prompt pass takes, each row softmaxed over its own prefix
    into float64 quotients, and added into the column sums after the rows
    before it.
    """
    colsum, row = np.zeros(Q.shape[0]), None
    for row in causal_rows(Q, K):
        colsum[: row.size] += row
    return colsum, row


@pytest.mark.parametrize(
    "n, d", [(127, 32), (128, 32), (129, 32), (255, 16), (257, 16), (8200, 8)]
)
def test_causal_attention_is_bitwise_the_row_order_oracle(n, d):
    # 8200 is past numpy's 8192-element reduction buffer.
    rng = np.random.default_rng(n)
    Q, K = rng.normal(scale=2.0, size=(n, d)), rng.normal(size=(n, d))
    colsum, last_row = row_order_oracle(Q, K)
    stats = causal_attention(Q, K, d)
    assert np.array_equal(stats.colsum, colsum)
    assert np.array_equal(stats.last_row, last_row)


def test_causal_attention_peak_memory_is_a_fraction_of_one_map():
    P = 2048
    rng = np.random.default_rng(0)
    Q, K = rng.normal(size=(P, 32)), rng.normal(size=(P, 32))
    tracemalloc.start()
    try:
        causal_attention(Q, K, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The P x P float64 map would be 32 MiB and one (BLOCK_ROWS + 1) x P
    # float64 buffer 2.02 MiB. The pass holds half of one in its float32
    # logits, an eighth in its bool mask, a quarter in Q and K cast to
    # float32, and a (SUM_ROWS + 1) x P float64 buffer of quotients.
    assert peak <= 1.25 * (BLOCK_ROWS + 1) * P * 8, peak / 2**20


# SHA-256 of ``colsum.tobytes() + last_row.tobytes()`` of
# ``causal_attention(Q, K, 32)`` for Q and K drawn from ``default_rng(P)``,
# under one BLAS thread (the benchmark's setting: at P=300 the float64
# product's bits depended on the BLAS thread count). Any change to the
# prompt pass's arithmetic shows here; such a change must re-record these
# alongside the CLI goldens. Sizes that are multiples of ``BLOCK_ROWS``, and
# 300, have the bits of the whole-map pass; at 129 the blocked product's
# tail tile takes another BLAS path.
CAUSAL_ATTENTION_SHA256 = {
    1: "5f07eef034c5a21fedede8ef2f970fefbcc8ea44c02fd970117dacbee5483005",
    128: "db0a65ea72dc5ceba8f3f91c6cf08c4b4ef2cbca3e36003349c52535da25f75c",
    129: "f9e37b994c695e1b38ded888133a4a2af3acffa444162e5c51f4c7eabad339a0",
    300: "d19467ae442659d8a8426f58088e190991b57374ac8fb3bd1b51b2ba592da13b",
    512: "a67f507034c58bbea43e489e569527daeeb8037c3663ec5344b97e5e232da580",
    1024: "268bcab5b7089236edd8fe69ed91d0a3e001332f72903ae3b2d943e031f16308",
}

_HASH_SCRIPT = """
import hashlib, sys
import numpy as np
from adaptive_kv.attention import causal_attention
for n in map(int, sys.argv[1:]):
    rng = np.random.default_rng(n)
    s = causal_attention(rng.normal(size=(n, 32)), rng.normal(size=(n, 32)), 32)
    print(n, hashlib.sha256(s.colsum.tobytes() + s.last_row.tobytes()).hexdigest())
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
