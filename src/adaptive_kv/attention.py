"""Dense causal attention numerics.

Logits and exponentials are float32, masses float64: a row's weights are
its float32 exponentials over their float64 sum. ``softmax_rows`` and
``softmax_vector`` are float64 throughout; half precision exists only in
the byte accounting model (see metrics). Matrices are plain 2-D numpy
arrays in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ROW_SUM_TOL = 1e-9
# Rows of a causal matrix processed as one whole-array block.
BLOCK_ROWS = 128
# Rows of a block whose float64 quotients join the column sums at a time.
SUM_ROWS = 32


class AttentionError(ValueError):
    """Raised on malformed matrices or dimension mismatches."""


def _finite_matrix(m: np.ndarray, name: str) -> np.ndarray:
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


def _exp_rows(x: np.ndarray, visible: np.ndarray | bool) -> np.ndarray:
    """Exponentiate each row of ``x`` in place, less its max; return the rows'
    float64 sums over ``visible`` as a column. Entries off it are ``-inf``."""
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    # The masked reduce sums each row's visible prefix in the pairwise loop of
    # ``row[:length].sum(dtype=np.float64)``; summing zeros would regroup terms.
    z = np.add.reduce(x, axis=1, where=visible, initial=0.0, dtype=np.float64)
    return z[:, None]


def _exp_prefixes(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``_exp_rows`` of row i of ``x`` over its first ``lengths[i]`` columns.

    One pass cut to the longest row: masked entries become ``-inf``, so
    they and all later columns end exactly zero.
    """
    width = lengths.max()
    visible = np.arange(width) < lengths[:, None]
    xb = x[:, :width]
    np.copyto(xb, -np.inf, where=~visible)
    x[:, width:] = 0.0
    return _exp_rows(xb, visible)


def softmax_rows(m, causal_lengths: Sequence[int] | None = None) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    When ``causal_lengths`` is given, row i is normalized over its first
    ``causal_lengths[i]`` columns and the rest are set to exactly zero.
    The input is copied and exponentiated in place by the routine the
    engine's ragged attends use, so each row's bits are those of a
    per-row softmax over its own prefix.
    """
    logits = _finite_matrix(np.array(m, dtype=np.float64), "softmax input")
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
    logits /= _exp_prefixes(logits, lengths)
    return logits


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

    The map is never built. Q and K are cast to float32, where an entry past
    its range is non-finite. Query rows go in ``BLOCK_ROWS``-row blocks, each
    the C-contiguous ``r x e`` prefix of one flat float32 buffer: ``Q[s:e] @
    K[:e].T``, scaled and exponentiated in place with only its r x r diagonal
    tile masked. ``SUM_ROWS`` rows at a time, the float64 quotients go below
    the column sums so far, and summing that buffer down its columns sums
    each column row after row, with the bits of a column sum over the whole
    map. Both buffers and a ``BLOCK_ROWS x P`` bool mask are allocated once.
    The last query's output is ``last_row @ V``. The products' bits can
    depend on the BLAS thread count at larger sizes; ``perfbench/run.py``
    pins one thread, the library and the CLI do not.
    """
    with np.errstate(over="ignore"):
        q, k = (_finite_matrix(np.asarray(M, np.float32), name)
                for M, name in ((Q, "Q"), (K, "K")))
    if d_k < 1:
        raise AttentionError(f"d_k must be >= 1, got {d_k}")
    if q.shape[1] != d_k:
        raise AttentionError(f"Q has {q.shape[1]} columns, expected d_k={d_k}")
    if k.shape[1] != d_k:
        raise AttentionError(f"K has {k.shape[1]} columns, expected d_k={d_k}")
    n = k.shape[0]
    if q.shape[0] != n:
        raise AttentionError(f"Q has {q.shape[0]} rows, expected {n} to match K")
    scale = float(np.sqrt(d_k))
    rows = min(BLOCK_ROWS, n)
    flat, sums = np.empty(rows * n, np.float32), np.empty((min(SUM_ROWS, n) + 1) * n)
    visible = np.ones(rows * n, dtype=bool)
    above = np.triu(np.ones((rows, rows), dtype=bool), 1)
    carry = np.zeros(n)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        r = stop - start
        logits, vis = (buf[: r * stop].reshape(r, stop) for buf in (flat, visible))
        np.matmul(q[start:stop], k[:stop].T, out=logits)
        logits /= scale
        np.copyto(logits[:, start:], -np.inf, where=above[:r, :r])
        np.logical_not(above[:r, :r], out=vis[:, start:])
        z = _exp_rows(logits, vis)
        vis[:, start:] = True
        for i in range(0, r, SUM_ROWS):
            block = sums[: (min(r - i, SUM_ROWS) + 1) * stop].reshape(-1, stop)
            block[0] = carry[:stop]
            np.divide(logits[i : i + SUM_ROWS], z[i : i + SUM_ROWS], out=block[1:])
            # Not ``carry += quotients.sum(axis=0)``: that regroups the terms.
            np.sum(block, axis=0, out=carry[:stop])
    return PromptStats(carry, block[-1])
