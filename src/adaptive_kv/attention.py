"""Dense causal attention numerics.

All engine math is float64; half precision exists only in the byte
accounting model (see metrics). Matrices are plain 2-D numpy arrays in
row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

ROW_SUM_TOL = 1e-9
# Rows of a causal softmax processed as one whole-array block.
_SOFTMAX_BLOCK_ROWS = 128


class AttentionError(ValueError):
    """Raised on malformed matrices or dimension mismatches."""


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite float64 2-D array."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise AttentionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size == 0:
        raise AttentionError("empty input")
    if not np.all(np.isfinite(m)):
        raise AttentionError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class AttentionMap:
    """Square row-stochastic causal matrix of attention scores.

    Row i holds the attention distribution of query position i over key
    positions 0..i; entries above the diagonal are exactly zero.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix, "attention map")
        if m.shape[0] != m.shape[1]:
            raise AttentionError(
                f"attention map must be square, got {m.shape[0]}x{m.shape[1]}"
            )
        if np.any(m < 0.0):
            raise AttentionError("attention map has negative entries")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise AttentionError("attention map rows must sum to 1")
        if np.any(m[_above_diagonal(m.shape[0])]):
            raise AttentionError("attention map must be causal (zero above diagonal)")
        object.__setattr__(self, "matrix", m)
        self.matrix.setflags(write=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@lru_cache(maxsize=8)
def _above_diagonal(n: int) -> np.ndarray:
    """Read-only boolean mask of the entries above an n x n diagonal."""
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def softmax_rows(m, causal_lengths: Sequence[int] | None = None) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    When ``causal_lengths`` is given, row i is normalized over its first
    ``causal_lengths[i]`` columns and the rest are set to exactly zero.
    Rows then go in blocks of ``_SOFTMAX_BLOCK_ROWS``, each cut to its
    longest row: masked entries become ``-inf`` (so their ``exp`` is
    exactly zero) and the max, shift, ``exp`` and division are whole-block
    operations. Each row's normalizer is still summed in Python over
    exactly its own prefix: numpy's pairwise sum groups terms by length,
    so summing the zero-padded row would change the last bits.
    """
    logits = as_matrix(m, "softmax input")
    n_rows, n_cols = logits.shape
    if causal_lengths is None:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    if len(causal_lengths) != n_rows:
        raise AttentionError(
            f"causal_lengths has {len(causal_lengths)} entries for {n_rows} rows"
        )
    lengths = np.asarray(causal_lengths)
    bad = np.flatnonzero((lengths < 1) | (lengths > n_cols))
    if bad.size:
        i = bad[0]
        raise AttentionError(f"row {i}: causal length {lengths[i]} out of range")
    out = np.zeros_like(logits)
    for start in range(0, n_rows, _SOFTMAX_BLOCK_ROWS):
        block = lengths[start : start + _SOFTMAX_BLOCK_ROWS]
        rows, width = slice(start, start + block.size), block.max()
        x = np.where(np.arange(width) < block[:, None], logits[rows, :width], -np.inf)
        x -= x.max(axis=1, keepdims=True)
        np.exp(x, out=x)
        sums = [x[i, :length].sum() for i, length in enumerate(block.tolist())]
        np.divide(x, np.array(sums)[:, None], out=out[rows, :width])
    return out


def softmax_vector(v) -> np.ndarray:
    """Softmax of a single logit vector (max-subtracted)."""
    row = np.asarray(v, dtype=np.float64)
    if row.ndim != 1 or row.size == 0:
        raise AttentionError("empty input")
    shifted = row - row.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def causal_attention(Q, K, d_k: int) -> AttentionMap:
    """Scaled dot-product attention weights under a causal mask.

    Returns the full attention map A = softmax(Q K^T / sqrt(d_k)); a
    caller wanting the attended output takes ``A.matrix @ V``.
    """
    q = as_matrix(Q, "Q")
    k = as_matrix(K, "K")
    if d_k < 1:
        raise AttentionError(f"d_k must be >= 1, got {d_k}")
    if q.shape[1] != d_k:
        raise AttentionError(f"Q has {q.shape[1]} columns, expected d_k={d_k}")
    if k.shape[1] != d_k:
        raise AttentionError(f"K has {k.shape[1]} columns, expected d_k={d_k}")
    if q.shape[0] != k.shape[0]:
        raise AttentionError(
            f"Q has {q.shape[0]} rows, expected {k.shape[0]} to match K"
        )
    logits = q @ k.T
    logits /= np.sqrt(float(d_k))
    weights = softmax_rows(logits, causal_lengths=range(1, q.shape[0] + 1))
    return AttentionMap(weights)
