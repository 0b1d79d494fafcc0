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
# Rows of a causal matrix processed as one whole-array block.
BLOCK_ROWS = 128


class AttentionError(ValueError):
    """Raised on malformed matrices or dimension mismatches."""


def _finite_matrix(data, name: str) -> tuple[np.ndarray, float]:
    """``data`` as a finite float64 2-D array, with its smallest entry."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise AttentionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size == 0:
        raise AttentionError("empty input")
    # NaN and +-inf propagate through min and max, so two reductions check
    # every entry without a boolean temporary the size of the matrix.
    lo = m.min()
    if not (np.isfinite(lo) and np.isfinite(m.max())):
        raise AttentionError(f"{name} contains non-finite entries")
    return m, float(lo)


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite float64 2-D array."""
    return _finite_matrix(data, name)[0]


@dataclass(frozen=True)
class AttentionMap:
    """Square row-stochastic causal matrix of attention scores.

    Row i holds the attention distribution of query position i over key
    positions 0..i; entries above the diagonal are exactly zero. The checks
    are reductions and ``BLOCK_ROWS``-row slices that read every entry, so
    they need no temporary the size of the map.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m, lo = _finite_matrix(self.matrix, "attention map")
        n = m.shape[0]
        if n != m.shape[1]:
            raise AttentionError(f"attention map must be square, got {n}x{m.shape[1]}")
        if lo < 0.0:
            raise AttentionError("attention map has negative entries")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise AttentionError("attention map rows must sum to 1")
        for start in range(0, n, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n)
            diagonal = m[start:stop, start:stop][_above_diagonal(stop - start)]
            if m[start:stop, stop:].any() or diagonal.any():
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


def _softmax_in_place(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Softmax row i of ``x`` in place over its first ``lengths[i]`` columns.

    Rows go in ``BLOCK_ROWS``-row blocks cut to their longest row; masked
    entries become ``-inf``, so they and all later columns end exactly zero.
    """
    for start in range(0, x.shape[0], BLOCK_ROWS):
        block = lengths[start : start + BLOCK_ROWS]
        rows, width = slice(start, start + block.size), block.max()
        visible = np.arange(width) < block[:, None]
        xb = x[rows, :width]
        np.copyto(xb, -np.inf, where=~visible)
        xb -= xb.max(axis=1, keepdims=True)
        np.exp(xb, out=xb)
        # The masked reduce hands each row's visible prefix to the pairwise
        # loop ``row[:length].sum()`` runs; summing the zero padding too
        # would regroup the terms and change the last bits.
        xb /= np.add.reduce(xb, axis=1, where=visible, initial=0.0)[:, None]
        x[rows, width:] = 0.0
    return x


def softmax_rows(m, causal_lengths: Sequence[int] | None = None) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    When ``causal_lengths`` is given, row i is normalized over its first
    ``causal_lengths[i]`` columns and the rest are set to exactly zero.
    The input is copied and normalised in place by the routine
    ``causal_attention`` uses, so each row's bits are those of a per-row
    softmax over its own prefix.
    """
    logits = as_matrix(m, "softmax input").copy()
    n_rows, n_cols = logits.shape
    if causal_lengths is None:
        causal_lengths = [n_cols] * n_rows
    if len(causal_lengths) != n_rows:
        raise AttentionError(
            f"causal_lengths has {len(causal_lengths)} entries for {n_rows} rows"
        )
    lengths = np.asarray(causal_lengths)
    bad = np.flatnonzero((lengths < 1) | (lengths > n_cols))
    if bad.size:
        i = bad[0]
        raise AttentionError(f"row {i}: causal length {lengths[i]} out of range")
    return _softmax_in_place(logits, lengths)


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
    return AttentionMap(_softmax_in_place(logits, np.arange(1, q.shape[0] + 1)))
