"""Attention-trace file I/O.

Binary container: magic ``AKVT``, version u16, the model config as
fixed-width little-endian integers, a token table, then per
(layer, head, step) blocks of length-prefixed float64 arrays holding the
K, V, and Q rows of that position. Round-trips are lossless bit-for-bit.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import ModelConfig, ModelError, linear_head_weights
from .tokens import CLASS_CODE, TokenAnnotation, TokenClass, VocabMetadata

MAGIC = b"AKVT"
VERSION = 1

_CODE_CLASS = {v: k for k, v in CLASS_CODE.items()}


class TraceError(Exception):
    """Base class for trace file problems."""


class TraceHeaderError(TraceError):
    """Malformed or invalid header (magic, version, config counts)."""


class TraceDimensionError(TraceError):
    """Row lengths or indices inconsistent with the declared config."""


class TraceTruncatedError(TraceError):
    """File ends in the middle of a structure."""


@dataclass(frozen=True, slots=True)
class TraceBlock:
    step: int
    k: np.ndarray
    v: np.ndarray
    q: np.ndarray


def _check_block(layer: int, head: int, block: TraceBlock, prev_step: int, d: int):
    """Raise for a block's first fault: its step, then K, V, Q shape and values."""
    if block.step <= prev_step:
        raise TraceDimensionError(
            f"steps not strictly increasing at (layer={layer}, "
            f"head={head}, step={block.step})"
        )
    for name, row in (("K", block.k), ("V", block.v), ("Q", block.q)):
        if row.shape != (d,):
            raise TraceDimensionError(
                f"{name} row at (layer={layer}, head={head}, "
                f"step={block.step}) has length {row.shape}, "
                f"expected {d}"
            )
        if not np.all(np.isfinite(row)):
            raise TraceDimensionError(
                f"{name} row at (layer={layer}, head={head}, "
                f"step={block.step}) has non-finite entries"
            )


def _first_faulty_block(entries: list[TraceBlock], d: int) -> int | None:
    """Index of the first block ``_check_block`` rejects, or None.

    Steps and shapes are checked block by block up to the first fault;
    the rows before it are checked for finiteness in one concatenated pass.
    """
    shape = (d,)
    end = len(entries)
    prev_step = -1
    for i, block in enumerate(entries):
        if (
            block.step <= prev_step
            or block.k.shape != shape
            or block.v.shape != shape
            or block.q.shape != shape
        ):
            end = i
            break
        prev_step = block.step
    if end:
        rows = np.concatenate([row for b in entries[:end] for row in (b.k, b.v, b.q)])
        finite = np.isfinite(rows).reshape(-1, d).all(axis=1)
        if not finite.all():
            return int(np.argmin(finite)) // 3
    return end if end < len(entries) else None


@dataclass
class AttentionTrace:
    config: ModelConfig
    tokens: list[TokenAnnotation]
    blocks: dict[tuple[int, int], list[TraceBlock]] = field(default_factory=dict)

    def __post_init__(self):
        d = self.config.head_dim
        for (layer, head), entries in self.blocks.items():
            if not 0 <= layer < self.config.num_layers:
                raise TraceDimensionError(f"layer {layer} out of range")
            if not 0 <= head < self.config.num_heads:
                raise TraceDimensionError(f"head {head} out of range")
            bad = _first_faulty_block(entries, d)
            if bad is not None:
                prev_step = entries[bad - 1].step if bad else -1
                _check_block(layer, head, entries[bad], prev_step, d)

    def vocab_metadata(self) -> VocabMetadata:
        """Reconstruct the special/punctuation id sets from the token table."""
        special = {t.token_id for t in self.tokens if t.klass is TokenClass.SPECIAL}
        punct = {
            t.token_id for t in self.tokens if t.klass is TokenClass.PUNCTUATION
        } - special
        return VocabMetadata(frozenset(special), frozenset(punct))


def _write_binary(trace: AttentionTrace, buf: io.BufferedIOBase):
    cfg = trace.config
    buf.write(MAGIC)
    buf.write(struct.pack("<H", VERSION))
    buf.write(
        struct.pack(
            "<IIIIq",
            cfg.num_layers,
            cfg.num_heads,
            cfg.head_dim,
            cfg.vocab_size,
            cfg.seed,
        )
    )
    buf.write(struct.pack("<I", len(trace.tokens)))
    for tok in trace.tokens:
        buf.write(struct.pack("<IB", tok.token_id, CLASS_CODE[tok.klass]))
    for (layer, head) in sorted(trace.blocks):
        for block in trace.blocks[(layer, head)]:
            buf.write(struct.pack("<HHI", layer, head, block.step))
            for row in (block.k, block.v, block.q):
                data = np.ascontiguousarray(row, dtype="<f8")
                buf.write(struct.pack("<I", data.size))
                buf.write(data.tobytes())


def write_trace(trace: AttentionTrace, sink):
    """Write a trace to a path or binary file object."""
    if hasattr(sink, "write"):
        _write_binary(trace, sink)
    else:
        with open(sink, "wb") as fh:
            _write_binary(trace, fh)


def _read_exact(buf: io.BufferedIOBase, count: int, what: str) -> bytes:
    data = buf.read(count)
    if len(data) != count:
        raise TraceTruncatedError(f"truncated payload while reading {what}")
    return data


def _read_binary(data: bytes) -> AttentionTrace:
    buf = io.BytesIO(data)
    magic = buf.read(4)
    if len(magic) < 4 or magic != MAGIC:
        raise TraceHeaderError(f"malformed header: bad magic {magic!r}")
    (version,) = struct.unpack("<H", _read_exact(buf, 2, "version"))
    if version != VERSION:
        raise TraceHeaderError(f"unsupported version {version}")
    fields = struct.unpack("<IIIIq", _read_exact(buf, 24, "model config"))
    num_layers, num_heads, head_dim, vocab_size, seed = fields
    try:
        config = ModelConfig(num_layers, num_heads, head_dim, vocab_size, seed)
    except ModelError as exc:
        raise TraceHeaderError(f"malformed header: {exc}") from exc
    (num_tokens,) = struct.unpack("<I", _read_exact(buf, 4, "token count"))
    tokens = []
    for pos in range(num_tokens):
        token_id, code = struct.unpack("<IB", _read_exact(buf, 5, f"token {pos}"))
        if code not in _CODE_CLASS:
            raise TraceHeaderError(f"token {pos}: unknown class code {code}")
        tokens.append(TokenAnnotation(pos, token_id, _CODE_CLASS[code]))

    blocks: dict[tuple[int, int], list[TraceBlock]] = {}
    while True:
        tag = buf.read(8)
        if not tag:
            break
        if len(tag) < 8:
            raise TraceTruncatedError("truncated payload while reading block tag")
        layer, head, step = struct.unpack("<HHI", tag)
        rows = []
        for name in ("K", "V", "Q"):
            (length,) = struct.unpack(
                "<I", _read_exact(buf, 4, f"{name} length at step {step}")
            )
            at = buf.tell()
            _read_exact(buf, 8 * length, f"{name} row at step {step}")
            rows.append(np.frombuffer(data, dtype="<f8", count=length, offset=at))
        blocks.setdefault((layer, head), []).append(
            TraceBlock(step, rows[0], rows[1], rows[2])
        )
    return AttentionTrace(config, tokens, blocks)


def read_trace(source) -> AttentionTrace:
    """Read a trace from a path or binary file object.

    The rows are read-only views of the bytes read, so the trace holds
    one copy of its payload.
    """
    data = source.read() if hasattr(source, "read") else Path(source).read_bytes()
    return _read_binary(data)


def record_trace(model, tokens: list[int], prompt_len: int) -> AttentionTrace:
    """Every head's K, V and Q rows at each position of ``tokens``.

    Rows are anchored to ``prompt_len`` as in a generation session whose
    prompt is the first ``prompt_len`` tokens, so replaying the trace
    with that prompt reproduces the session. Each role of a layer is read
    in one ``(n, H, d)`` block; every block's rows are views into it.
    """
    annotations = [
        TokenAnnotation(pos, tid, model.vocab.classify_id(tid))
        for pos, tid in enumerate(tokens)
    ]
    cfg = model.config
    codes = np.array([CLASS_CODE[a.klass] for a in annotations], dtype=np.int8)
    heads, at = np.arange(cfg.num_heads), np.arange(len(tokens))[:, None]
    blocks = {}
    for layer in range(cfg.num_layers):
        k = model.k_row(layer, heads, at, codes[:, None], prompt_len)
        v = model.v_row(layer, heads, at)
        q = model.q_row(layer, heads, at, prompt_len)
        for head in range(cfg.num_heads):
            blocks[(layer, head)] = [
                TraceBlock(step=pos, k=k[pos, head], v=v[pos, head], q=q[pos, head])
                for pos in range(len(tokens))
            ]
    return AttentionTrace(cfg, annotations, blocks)


class TraceModel:
    """Model handle backed by recorded rows.

    Replay is teacher-forced: the K/V/Q rows at each position are the
    recorded ones regardless of which tokens the current run samples. The
    next-token head is reconstructed from the trace's seed, so replaying a
    synthetic trace with matching settings reproduces the original run.
    """

    def __init__(self, trace: AttentionTrace):
        self.config = trace.config
        self.vocab = trace.vocab_metadata()
        self._token_ids = [t.token_id for t in trace.tokens]
        n_positions = len(trace.tokens)
        # Per role and head, one (n, d) array of rows by position; the model
        # keeps no reference to the trace or its blocks.
        self._k, self._v, self._q = {}, {}, {}
        for key in trace.config.head_grid():
            entries = trace.blocks.get(key)
            if entries is None:
                raise TraceDimensionError(
                    f"trace has no blocks for (layer={key[0]}, head={key[1]})"
                )
            # Steps strictly increase, so positions 0..n-1 are the first n.
            entries = entries[:n_positions]
            if [b.step for b in entries] != list(range(n_positions)):
                missing = sorted(set(range(n_positions)) - {b.step for b in entries})
                raise TraceDimensionError(
                    f"trace is missing steps {missing[:4]} for "
                    f"(layer={key[0]}, head={key[1]})"
                )
            for rows, role in ((self._k, "k"), (self._v, "v"), (self._q, "q")):
                rows[key] = np.array([getattr(b, role) for b in entries])
        self.max_context = n_positions
        self._head_weights = linear_head_weights(self.config)

    def _pos(self, pos: int) -> int:
        # Checked both ways: a negative index would wrap to the last rows.
        if not 0 <= pos < self.max_context:
            raise ModelError(
                f"position {pos} outside trace length {self.max_context}"
            )
        return pos

    def prompt_token_ids(self, prompt_len: int) -> list[int]:
        if prompt_len < 1:
            raise ModelError("prompt_len must be >= 1")
        if prompt_len > self.max_context:
            raise ModelError(
                f"prompt_len {prompt_len} exceeds trace length {self.max_context}"
            )
        return self._token_ids[:prompt_len]

    def _block(self, rows: dict, layer: int, head, pos) -> np.ndarray:
        """Rows of ``layer`` at ``head`` and ``pos`` broadcast, copied out of
        the per-head arrays: row by row at one int position, else one
        gather per head."""
        if not isinstance(pos, np.ndarray) and head.size:
            p = self._pos(pos)
            picked = [rows[layer, h][p] for h in head.ravel().tolist()]
            return np.concatenate(picked).reshape(head.shape + (-1,))
        head, pos = np.broadcast_arrays(head, pos)
        if pos.size:
            self._pos(int(pos.min()))
            self._pos(int(pos.max()))
        out = np.empty(head.shape + (self.config.head_dim,))
        for h in np.unique(head).tolist():
            at = head == h
            out[at] = rows[layer, h][pos[at]]
        return out

    def k_row(self, layer, head, pos, klass, prompt_len) -> np.ndarray:
        if isinstance(head, np.ndarray) or isinstance(pos, np.ndarray):
            return self._block(self._k, layer, head, pos)
        return self._k[layer, head][self._pos(pos)]

    def v_row(self, layer, head, pos) -> np.ndarray:
        if isinstance(head, np.ndarray) or isinstance(pos, np.ndarray):
            return self._block(self._v, layer, head, pos)
        return self._v[layer, head][self._pos(pos)]

    def q_row(self, layer, head, pos, prompt_len) -> np.ndarray:
        if isinstance(head, np.ndarray) or isinstance(pos, np.ndarray):
            return self._block(self._q, layer, head, pos)
        return self._q[layer, head][self._pos(pos)]

    def head_logits(self, concat_outputs: np.ndarray) -> np.ndarray:
        return self._head_weights @ concat_outputs
