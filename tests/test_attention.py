from __future__ import annotations

import math

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


def reference_causal_softmax(logits, lengths):
    """Row-by-row causal softmax, kept as the bitwise reference."""
    out = np.zeros_like(logits)
    for i, length in enumerate(lengths):
        row = logits[i, :length]
        exp = np.exp(row - row.max())
        out[i, :length] = exp / exp.sum()
    return out


@pytest.mark.parametrize("n", list(range(1, 21)) + [127, 128, 129, 257])
def test_causal_softmax_is_bitwise_the_per_row_softmax(n):
    rng = np.random.default_rng(n)
    logits = rng.normal(scale=4.0, size=(n, n))
    lengths = range(1, n + 1)
    assert np.array_equal(
        softmax_rows(logits, causal_lengths=lengths),
        reference_causal_softmax(logits, lengths),
    )
    # Lengths other than i + 1, over more columns than rows.
    wide = rng.normal(scale=4.0, size=(n, n + 7))
    lengths = rng.integers(1, n + 8, size=n)
    assert np.array_equal(
        softmax_rows(wide, causal_lengths=lengths),
        reference_causal_softmax(wide, lengths),
    )


def test_causal_lengths_are_checked_row_by_row():
    with pytest.raises(AttentionError, match="row 1: causal length 0 out of range"):
        softmax_rows(np.ones((3, 3)), causal_lengths=[1, 0, 4])
    with pytest.raises(AttentionError, match="causal_lengths has 2 entries for 3 rows"):
        softmax_rows(np.ones((3, 3)), causal_lengths=[1, 2])


@pytest.mark.parametrize("n, at", [(129, (0, 128)), (200, (127, 128)), (2, (0, 1))])
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
