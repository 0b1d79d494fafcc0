"""Attention-trace file I/O.

Binary container, all little-endian: magic ``AKVT``, version u16, the
model config (``num_layers``, ``num_heads``, ``head_dim``, ``vocab_size``
as u32, ``seed`` as i64), a u32 token count and that many (u32 id, u8
class code) entries, then one record per (layer, head, step) to the end
of the file. A record is packed with no padding: layer u16, head u16,
step u32, then for each of K, V and Q in turn a u32 length, always
``head_dim``, and ``head_dim`` float64 entries. Each (layer, head)'s
records are written together, by step; a reader takes the records as one
array. Round-trips are lossless bit-for-bit.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import ModelConfig, ModelError, linear_head_weights
from .tokens import TokenAnnotation, TokenClass, VocabMetadata, classify_tokens

MAGIC = b"AKVT"
VERSION = 1

# Records per write, through one reused buffer. A buffer per (layer, head)
# (0.9 MB at 1,151 steps and head_dim 32) raised the replay benchmark's
# peak resident memory by about 2.5 MB, and filling fields through
# np.stack's per-row views at times raised it by 15-25 MB: a sink that
# grows as it is written is moved and copied when other allocations land
# beside it.
_RECORDS_PER_WRITE = 64


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


def _first_fault(layer: int, head: int, entries: list[TraceBlock], d: int):
    """The message of the first rule ``entries`` break, or None.

    Blocks are taken in order. A block's step must exceed the one before,
    then each of its K, V and Q rows must have length ``d`` and finite
    entries. Steps and lengths are checked row by row up to the first
    fault; the rows before it are checked for finiteness in one
    concatenated pass, so a non-finite row among them comes first.
    """

    def at(block: TraceBlock) -> str:
        return f"(layer={layer}, head={head}, step={block.step})"

    shape, rows, fault, prev_step = (d,), [], None, -1
    for block in entries:
        if block.step <= prev_step:
            fault = f"steps not strictly increasing at {at(block)}"
            break
        for row in (block.k, block.v, block.q):
            if row.shape != shape:
                name = "KVQ"[len(rows) % 3]
                fault = f"{name} row at {at(block)} has length {row.shape}, expected {d}"
                break
            rows.append(row)
        if fault is not None:
            break
        prev_step = block.step
    if rows:
        finite = np.isfinite(np.concatenate(rows)).reshape(-1, d).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            name = "KVQ"[bad % 3]
            fault = f"{name} row at {at(entries[bad // 3])} has non-finite entries"
    return fault


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
            fault = _first_fault(layer, head, entries, d)
            if fault is not None:
                raise TraceDimensionError(fault)

    def vocab_metadata(self) -> VocabMetadata:
        """Reconstruct the special/punctuation id sets from the token table."""
        special = {t.token_id for t in self.tokens if t.klass is TokenClass.SPECIAL}
        punct = {
            t.token_id for t in self.tokens if t.klass is TokenClass.PUNCTUATION
        } - special
        return VocabMetadata(frozenset(special), frozenset(punct))


def _record_dtype(d: int) -> np.dtype:
    """One packed AKVT record: the ``<HHI`` tag, then K, V and Q, each a
    u32 length and ``d`` float64 entries."""
    fields = [("layer", "<u2"), ("head", "<u2"), ("step", "<u4")]
    for role in "kvq":
        fields += [(f"{role}_len", "<u4"), (role, "<f8", (d,))]
    return np.dtype(fields)


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
        buf.write(struct.pack("<IB", tok.token_id, tok.klass))
    buffer = np.empty(_RECORDS_PER_WRITE, _record_dtype(cfg.head_dim))
    for (layer, head) in sorted(trace.blocks):
        entries = trace.blocks[(layer, head)]
        for start in range(0, len(entries), _RECORDS_PER_WRITE):
            part = entries[start : start + _RECORDS_PER_WRITE]
            records = buffer[: len(part)]
            records["layer"], records["head"] = layer, head
            records["step"] = [block.step for block in part]
            for role in "kvq":
                records[f"{role}_len"] = cfg.head_dim
                records[role] = [getattr(block, role) for block in part]
            buf.write(records)


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
        if code >= len(TokenClass):
            raise TraceHeaderError(f"token {pos}: unknown class code {code}")
        tokens.append(TokenAnnotation(pos, token_id, TokenClass(code)))

    try:
        dtype = _record_dtype(head_dim)
    except ValueError as exc:
        raise TraceHeaderError(f"malformed header: head_dim {head_dim}: {exc}") from exc
    at = buf.tell()
    count, extra = divmod(len(data) - at, dtype.itemsize)
    if extra:
        raise TraceTruncatedError(
            f"truncated payload while reading block {count}: "
            f"{extra} of {dtype.itemsize} bytes"
        )
    # A view of the whole payload, so every row's base is one array of
    # all its bytes.
    payload = np.frombuffer(data, np.uint8)
    records = payload[at:].view(dtype)
    lengths = np.stack([records[f"{role}_len"] for role in "kvq"], axis=-1)
    bad = np.flatnonzero(lengths != head_dim)
    if bad.size:
        i, role = divmod(int(bad[0]), 3)
        raise TraceDimensionError(
            f"{'KVQ'[role]} row at (layer={records['layer'][i]}, "
            f"head={records['head'][i]}, step={records['step'][i]}) "
            f"has length ({lengths[i, role]},), expected {head_dim}"
        )
    blocks: dict[tuple[int, int], list[TraceBlock]] = {}
    layers, heads, steps = (records[name] for name in ("layer", "head", "step"))
    k, v, q = records["k"], records["v"], records["q"]
    # Runs of records of one (layer, head), in file order.
    changes = (layers[1:] != layers[:-1]) | (heads[1:] != heads[:-1])
    starts = [0] + (np.flatnonzero(changes) + 1).tolist() if count else []
    for start, stop in zip(starts, starts[1:] + [count]):
        run = slice(start, stop)
        blocks.setdefault((int(layers[start]), int(heads[start])), []).extend(
            map(TraceBlock, steps[run].tolist(), k[run], v[run], q[run])
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
    annotations = classify_tokens(tokens, model.vocab)
    cfg = model.config
    codes = np.array([a.klass for a in annotations], dtype=np.int8)
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
        # Per role and slot, one (n, d) array of rows by position; the model
        # keeps no reference to the trace or its blocks.
        self._k, self._v, self._q = [], [], []
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
                rows.append(np.array([getattr(b, role) for b in entries]))
        self.max_context = n_positions
        self._head_weights = linear_head_weights(self.config)

    def prompt_token_ids(self, prompt_len: int) -> list[int]:
        if prompt_len < 1:
            raise ModelError("prompt_len must be >= 1")
        if prompt_len > self.max_context:
            raise ModelError(
                f"prompt_len {prompt_len} exceeds trace length {self.max_context}"
            )
        return self._token_ids[:prompt_len]

    def _block(self, rows: list, layer, head, pos) -> np.ndarray:
        """Rows at ``layer``, ``head`` and ``pos``, the three broadcast, copied
        out of the per-slot arrays into a new ``broadcast shape + (d,)`` array:
        at one int position, every slot's row in one concatenation (a decode
        step's ``(L, H, d)``), else one gather per slot. Int ``layer``,
        ``head`` and ``pos`` read one ``(d,)`` row."""
        (layer, head, pos), bounds = self.config.block_index(layer, head, pos)
        slots = layer * self.config.num_heads + head
        if bounds is None:
            shape = np.broadcast_shapes(slots.shape, pos.shape)
            return np.empty(shape + (self.config.head_dim,))
        _, _, (lo, hi) = bounds
        # Checked both ways: a negative index would wrap to the last rows.
        if lo < 0 or hi >= self.max_context:
            raise ModelError(
                f"position {lo if lo < 0 else hi} outside trace length {self.max_context}"
            )
        if pos.ndim == 0:
            picked = [rows[slot][lo] for slot in slots.ravel().tolist()]
            return np.concatenate(picked).reshape(slots.shape + (-1,))
        slots, pos = np.broadcast_arrays(slots, pos)
        out = np.empty(slots.shape + (self.config.head_dim,))
        for slot in np.unique(slots).tolist():
            at = slots == slot
            out[at] = rows[slot][pos[at]]
        return out

    def k_row(self, layer, head, pos, klass, prompt_len) -> np.ndarray:
        return self._block(self._k, layer, head, pos)

    def v_row(self, layer, head, pos) -> np.ndarray:
        return self._block(self._v, layer, head, pos)

    def q_row(self, layer, head, pos, prompt_len) -> np.ndarray:
        return self._block(self._q, layer, head, pos)

    def head_logits(self, concat_outputs: np.ndarray) -> np.ndarray:
        return self._head_weights @ concat_outputs
