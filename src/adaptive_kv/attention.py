"""Dense causal attention numerics.

All engine math is float64; half precision exists only in the byte
accounting model (see metrics). Matrices are plain 2-D numpy arrays in
row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ROW_SUM_TOL = 1e-9
# Rows of a causal matrix processed as one whole-array block.
BLOCK_ROWS = 128


class AttentionError(ValueError):
    """Raised on malformed matrices or dimension mismatches."""


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite float64 2-D array."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise AttentionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size == 0:
        raise AttentionError("empty input")
    # NaN and +-inf propagate through min and max, so two reductions check
    # every entry without a boolean temporary the size of the matrix.
    if not (np.isfinite(m.min()) and np.isfinite(m.max())):
        raise AttentionError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class PromptStats:
    """What the prompt pass keeps of one head's causal attention map.

    ``colsum[j]`` is the mass key position j receives from every query
    row, summed in row order; ``last_row`` is the final query's attention
    row. Both are read-only float64 vectors with one entry per position.
    """

    colsum: np.ndarray
    last_row: np.ndarray

    def __post_init__(self):
        for name in ("colsum", "last_row"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0:
                raise AttentionError(f"{name} must be a nonempty vector")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n, total = self.colsum.size, self.colsum.sum()
        if self.last_row.size != n:
            raise AttentionError(f"last_row has {self.last_row.size} entries, expected {n}")
        # NaN and +-inf propagate through the sum.
        if not np.isfinite(total):
            raise AttentionError("attention column sums contain non-finite entries")
        if self.colsum.min() < 0.0:
            raise AttentionError("attention column sums have negative entries")
        if abs(total - n) > ROW_SUM_TOL * n:
            raise AttentionError(f"attention column sums total {total}, expected {n}")

    @property
    def size(self) -> int:
        return self.colsum.size


def _normalise_rows(x: np.ndarray, visible: np.ndarray | bool) -> None:
    """Softmax each row of ``x`` in place; entries off ``visible`` are ``-inf``."""
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    # The masked reduce sums each row's visible prefix in the pairwise loop
    # ``row[:length].sum()`` runs; summing the zeros too would regroup terms.
    x /= np.add.reduce(x, axis=1, where=visible, initial=0.0)[:, None]


def _softmax_in_place(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Softmax row i of ``x`` in place over its first ``lengths[i]`` columns.

    One pass cut to the longest row: masked entries become ``-inf``, so
    they and all later columns end exactly zero.
    """
    width = lengths.max()
    visible = np.arange(width) < lengths[:, None]
    xb = x[:, :width]
    np.copyto(xb, -np.inf, where=~visible)
    _normalise_rows(xb, visible)
    x[:, width:] = 0.0
    return x


def softmax_rows(m, causal_lengths: Sequence[int] | None = None) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    When ``causal_lengths`` is given, row i is normalized over its first
    ``causal_lengths[i]`` columns and the rest are set to exactly zero.
    The input is copied and normalised in place by the routine the
    engine's ragged attends use, so each row's bits are those of a
    per-row softmax over its own prefix.
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


def causal_attention(Q, K, d_k: int) -> PromptStats:
    """Column sums and last row of the causal map softmax(Q K^T / sqrt(d_k)).

    The map itself is never built. Query rows go in ``BLOCK_ROWS``-row
    blocks, each the C-contiguous ``(r + 1) x e`` prefix of one flat
    buffer: the column sums so far in row 0, then the block's
    ``Q[s:e] @ K[:e].T``, scaled and softmaxed in place with only its
    r x r diagonal tile masked. Summing each block down its columns sums
    each column row after row, with the bits of a column sum over the
    whole map. Peak memory is one ``(BLOCK_ROWS + 1) x P`` float64 buffer
    and one ``BLOCK_ROWS x P`` bool mask, both allocated once. A caller
    wanting the last query's output takes ``last_row @ V``. The bits of
    the products can depend on the BLAS thread count at larger sizes;
    ``perfbench/run.py`` pins one thread, the library and the CLI do not.
    """
    q = as_matrix(Q, "Q")
    k = as_matrix(K, "K")
    if d_k < 1:
        raise AttentionError(f"d_k must be >= 1, got {d_k}")
    if q.shape[1] != d_k:
        raise AttentionError(f"Q has {q.shape[1]} columns, expected d_k={d_k}")
    if k.shape[1] != d_k:
        raise AttentionError(f"K has {k.shape[1]} columns, expected d_k={d_k}")
    n = k.shape[0]
    if q.shape[0] != n:
        raise AttentionError(f"Q has {q.shape[0]} rows, expected {n} to match K")
    scale = np.sqrt(float(d_k))
    rows = min(BLOCK_ROWS, n)
    flat = np.empty((rows + 1) * n)
    visible = np.ones(rows * n, dtype=bool)
    above = np.triu(np.ones((rows, rows), dtype=bool), 1)
    carry = np.zeros(n)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        r = stop - start
        block = flat[: (r + 1) * stop].reshape(r + 1, stop)
        block[0] = carry[:stop]
        logits, vis = block[1:], visible[: r * stop].reshape(r, stop)
        np.matmul(q[start:stop], k[:stop].T, out=logits)
        logits /= scale
        np.copyto(logits[:, start:], -np.inf, where=above[:r, :r])
        np.logical_not(above[:r, :r], out=vis[:, start:])
        _normalise_rows(logits, vis)
        vis[:, start:] = True
        # Not ``carry += logits.sum(axis=0)``: that regroups the terms.
        np.sum(block, axis=0, out=carry[:stop])
    return PromptStats(carry, block[-1])
