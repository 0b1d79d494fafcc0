"""Deterministic synthetic attention models with planted head structures.

Each head follows one archetype: its query vectors plant a large logit on
the target key columns (special-class tokens, the recent window, or a
fixed sparse column set) and bounded uniform noise elsewhere, so the
archetype's attention-mass bound holds at every decoding step by
construction rather than by sampling.

Row noise comes from counter-based streams (Philox; Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), one per (role,
layer), keyed by ``SeedSequence(seed, spawn_key=(role, layer))``. Row
(pos, head) owns the ``B = ceil(d / 4)`` four-word blocks from counter
``(pos * H + head) * B``, read as ``4 * B`` uniform(-1, 1) words: a key
row takes the first ``d - 4`` words times the noise amplitude, a query
row the same times ``sqrt(d)``, and a value row the first ``d`` words.
Every draw jumps its stream to the counter it starts at, so a row is a
pure function of (seed, role, layer, head, pos) whatever the call order.
Rows are laid out back to back with no gaps, positions major and heads
minor, so one draw holds n positions' rows for every head of a layer.

Each stream keeps one read-ahead window: the rows of ``W = 16`` positions
(``W * H`` rows) drawn from the first row of a read that missed it. A
read inside the window slices it; a miss spanning at most ``W * H`` rows
refills the window in place from its first row; a larger read, such as
the prompt pass, draws its own span and leaves the window as it was. A
model so holds at most ``3 * L`` windows of ``W * H`` rows of ``4 * B``
words, whatever it has read: 12 streams at 4 layers, 384 KB at 8 heads
and ``d = 32``. Every row it returns owns its memory.

Row methods take one row or a block. ``k_row``, ``q_row`` and ``v_row``
with int ``head`` and ``pos`` return one ``(d,)`` row. ``k_row``'s
``klass`` is a ``TokenClass`` code; a code that names no class is a
``ModelError``. With an int array for either, ``head`` and ``pos``
broadcast together, ``klass`` is a code array that broadcasts to their
shape, and the result has shape ``broadcast shape + (d,)``, each row
bit-equal to the same row read alone. A decode step reads ``(H, d)``
with ``pos`` an int and ``head`` every head; the prompt pass reads
``(n, H, d)`` with ``pos`` as ``positions[:, None]``. A
``SyntheticModel`` block is gathered from the rows over the counter span
it covers, with the planted dims filled from per-class and per-archetype
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .tokens import TokenClass, VocabMetadata

# Feature layout of key rows: indicator dims, a position ramp, then noise.
_DIM_SPECIAL = 0
_DIM_PUNCT = 1
_DIM_COLUMN = 2
_DIM_POSITION = 3
_NUM_PLANTED_DIMS = 4
_POS_SCALE = 0.01
# Hard bound on the noise contribution to any single attention logit.
_NOISE_LOGIT_BOUND = 0.05

_SPARSE_COLUMN_FRACTIONS = (0.0, 0.08, 0.16, 0.24)
_PUNCT_FRACTIONS = (0.2, 0.4, 0.6, 0.8)

# Stream codes for per-role RNG derivation.
_ROLE_KEY = 0
_ROLE_QUERY = 1
_ROLE_VALUE = 2
_ROLE_PROMPT = 3
_ROLE_HEAD_WEIGHTS = 4
# Philox counters are 256-bit; a jump back is a jump forward modulo this.
_PHILOX_PERIOD = 1 << 256
# Positions of rows each (role, layer) stream draws ahead of need.
_WINDOW_POSITIONS = 16
# Key-row indicator dims of each class code; other classes plant nothing.
_CLASS_DIMS = np.zeros((len(TokenClass), _NUM_PLANTED_DIMS))
_CLASS_DIMS[TokenClass.SPECIAL, _DIM_SPECIAL] = 1.0
_CLASS_DIMS[TokenClass.PUNCTUATION, _DIM_PUNCT] = 1.0
_CLASS_DIMS.setflags(write=False)

DEFAULT_VOCAB = VocabMetadata(
    special_ids=frozenset({0, 1}), punctuation_ids=frozenset({2, 3, 4})
)
_FIRST_WORD_ID = 5


class ModelError(ValueError):
    """Raised on invalid model configuration or plan."""


class Archetype(Enum):
    SPECIAL_DOMINANT = "special"
    LOCAL_DOMINANT = "local"
    COLUMN_SPARSE = "colsparse"
    DIFFUSE = "diffuse"


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    num_heads: int
    head_dim: int
    vocab_size: int
    seed: int

    def __post_init__(self):
        for name in ("num_layers", "num_heads", "head_dim", "vocab_size"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1, got {getattr(self, name)}")

    def check_layer(self, layer: int):
        """Raise unless ``layer`` is a layer of the grid."""
        if not 0 <= layer < self.num_layers:
            raise ModelError(f"layer {layer} outside 0..{self.num_layers - 1}")

    def check_head(self, head: int):
        """Raise unless ``head`` is a head of the grid; a row counter such
        as ``pos * H + head`` would otherwise read another head's row."""
        if not 0 <= head < self.num_heads:
            raise ModelError(f"head {head} outside 0..{self.num_heads - 1}")

    def head_grid(self) -> list[tuple[int, int]]:
        return [
            (layer, head)
            for layer in range(self.num_layers)
            for head in range(self.num_heads)
        ]


@dataclass(frozen=True)
class HeadPlan:
    """Archetype assignment for one head, with an optional phase switch.

    ``switch_to``/``switch_step`` flip the planted structure from the given
    decoding step onward; stationary heads leave them unset. Phase
    switches exist for consistency diagnostics only.
    """

    archetype: Archetype
    switch_to: Archetype | None = None
    switch_step: int | None = None

    def __post_init__(self):
        if (self.switch_to is None) != (self.switch_step is None):
            raise ModelError("switch_to and switch_step must be set together")
        if self.switch_step is not None and self.switch_step < 1:
            raise ModelError("switch_step must be a decoding step >= 1")


# Pure helpers called for every synthesized row; cached.
@lru_cache(maxsize=64)
def sparse_columns(prompt_len: int) -> tuple[int, ...]:
    """Fixed small column set shared by all column-sparse heads."""
    cols = {round(f * (prompt_len - 1)) for f in _SPARSE_COLUMN_FRACTIONS}
    return tuple(sorted(cols))


def punctuation_positions(prompt_len: int) -> tuple[int, ...]:
    """Punctuation token positions, seeded at fixed fractions of the prompt."""
    positions = {round(f * (prompt_len - 1)) for f in _PUNCT_FRACTIONS}
    positions.discard(0)
    return tuple(sorted(positions))


def linear_head_weights(config: ModelConfig) -> np.ndarray:
    """Seeded next-token projection, shared by synthetic and trace models."""
    dim = config.num_layers * config.num_heads * config.head_dim
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(_ROLE_HEAD_WEIGHTS,))
    rng = np.random.Generator(np.random.PCG64(seq))
    return rng.uniform(-1.0, 1.0, (config.vocab_size, dim)) / math.sqrt(dim)


def _indicator_logit(dominance: float, max_context: int) -> float:
    # Mass on the planted set stays >= dominance even when max_context - 1
    # noise-boosted competitors are visible.
    return (
        math.log(dominance / (1.0 - dominance))
        + math.log(max_context)
        + 2.0 * _NOISE_LOGIT_BOUND
        + 0.5
    )


@lru_cache(maxsize=64)
def _local_slope(dominance: float, window: int) -> float:
    # Fixed-point solve for beta with mass outside the last `window`
    # positions bounded by e^{2*eps} * r^window / (1 - r), r = e^{-beta}.
    target = (
        math.log(dominance / (1.0 - dominance)) + 2.0 * _NOISE_LOGIT_BOUND + 0.3
    )
    beta = (target + 1.0) / window
    for _ in range(80):
        beta = (target + math.log(1.0 / (1.0 - math.exp(-beta)))) / window
    return beta


def _check_class(klass):
    """Raise unless each class code in ``klass`` names a ``TokenClass``."""
    if isinstance(klass, np.ndarray):  # initial=0 lets an empty array pass
        lo, hi = klass.min(initial=0), klass.max(initial=0)
    else:
        lo = hi = klass
    if lo < 0 or hi >= len(_CLASS_DIMS):
        bad = lo if lo < 0 else hi
        raise ModelError(f"class code {bad} outside 0..{len(_CLASS_DIMS) - 1}")


class _RowStream:
    """One (role, layer) Philox stream, the block counter it stands at, and
    its read-ahead window, which holds flat rows ``start..stop - 1``; the
    window is allocated at the first read that fills it."""

    __slots__ = ("gen", "at", "row_blocks", "window", "start", "stop")

    def __init__(self, seed: int, role: int, layer: int, row_blocks: int):
        seq = np.random.SeedSequence(seed, spawn_key=(role, layer))
        self.gen = np.random.Generator(np.random.Philox(seq))
        self.at, self.row_blocks = 0, row_blocks
        self.window, self.start, self.stop = None, 0, 0

    def fill(self, row: int, out: np.ndarray) -> np.ndarray:
        """``out`` filled with the words of rows ``row..row + len(out) - 1``,
        read at their counters whatever was drawn before."""
        start = row * self.row_blocks
        self.gen.bit_generator.advance((start - self.at) % _PHILOX_PERIOD)
        self.at = start + len(out) * self.row_blocks
        # Bit-equal to uniform(-1, 1), which is -1 + 2 * random(); the
        # doubling is exact. Refilling one window in place, rather than
        # allocating a new one per miss among the rows a caller keeps, held
        # the benchmark's peak resident memory within about 1% of the
        # model without windows.
        self.gen.random(out=out)
        np.multiply(out, 2.0, out=out)
        np.add(out, -1.0, out=out)
        return out


class SyntheticModel:
    """Deterministic toy multi-head model with planted attention structure.

    A pure function of (config, plan, dominance): two instances with equal
    arguments produce bitwise-identical rows and prompts. The next-token
    head is a seeded linear map over the concatenated per-head attention
    outputs.
    """

    def __init__(
        self,
        config: ModelConfig,
        plan: dict[tuple[int, int], HeadPlan | Archetype],
        dominance: float,
        local_window_frac: float = 0.3,
        max_context: int = 4096,
        vocab: VocabMetadata = DEFAULT_VOCAB,
    ):
        if not 0.5 < dominance < 1.0:
            raise ModelError(f"dominance must be in (0.5, 1.0), got {dominance}")
        if config.head_dim < _NUM_PLANTED_DIMS + 2:
            raise ModelError(
                f"head_dim must be >= {_NUM_PLANTED_DIMS + 2} for planted structure"
            )
        if config.vocab_size < _FIRST_WORD_ID + 1:
            raise ModelError(
                f"vocab_size must be >= {_FIRST_WORD_ID + 1} to hold special, "
                "punctuation, and word ids"
            )
        if not plan:
            raise ModelError("no heads defined")
        if not 0.0 < local_window_frac <= 1.0:
            raise ModelError("local_window_frac must be in (0, 1]")
        normalized: dict[tuple[int, int], HeadPlan] = {}
        for key, value in plan.items():
            normalized[key] = value if isinstance(value, HeadPlan) else HeadPlan(value)
        grid = config.head_grid()
        missing = [key for key in grid if key not in normalized]
        if missing:
            raise ModelError(f"plan does not cover heads {missing}")
        grid_keys = set(grid)
        extra = [key for key in normalized if key not in grid_keys]
        if extra:
            raise ModelError(f"plan names heads outside the model grid: {extra}")

        self.config = config
        self.plan = normalized
        self.dominance = dominance
        self.local_window_frac = local_window_frac
        self.max_context = max_context
        self.vocab = vocab
        noise_dims = config.head_dim - _NUM_PLANTED_DIMS
        self._noise_amp = math.sqrt(_NOISE_LOGIT_BOUND / noise_dims)
        self._indicator = _indicator_logit(dominance, max_context)
        self._sqrt_d = math.sqrt(float(config.head_dim))
        self._head_weights: np.ndarray | None = None
        # Philox blocks (four words each) per noise row, rows per read-ahead
        # window, and each (role, layer) stream.
        self._row_blocks = (config.head_dim + 3) // 4
        self._window_rows = _WINDOW_POSITIONS * config.num_heads
        self._streams: dict[tuple[int, int], _RowStream] = {}
        # The prompt length the query tables were built for, and the tables.
        self._query_tables: tuple = (None,)

    def _rows(self, role: int, layer: int, lo: int, hi: int) -> np.ndarray:
        """Flat rows ``lo..hi`` (``pos * H + head``) of the (role, layer)
        stream as ``(hi - lo + 1, 4 * B)`` uniform(-1, 1) words: a view of
        the stream's window when they lie inside it, else from a new draw."""
        stream = self._streams.get((role, layer))
        if stream is None:
            stream = _RowStream(self.config.seed, role, layer, self._row_blocks)
            self._streams[(role, layer)] = stream
        if stream.start <= lo and hi < stream.stop:
            return stream.window[lo - stream.start : hi - stream.start + 1]
        if hi - lo + 1 > self._window_rows:
            return stream.fill(lo, np.empty((hi - lo + 1, 4 * self._row_blocks)))
        if stream.window is None:
            # Not at stream creation, which is often amid a prompt pass's
            # temporaries.
            stream.window = np.empty((self._window_rows, 4 * self._row_blocks))
        stream.start, stream.stop = lo, lo + self._window_rows
        return stream.fill(lo, stream.window)[: hi - lo + 1]

    def _noise(self, role: int, layer: int, head: int, pos: int) -> np.ndarray:
        """The words of row (pos, head): a view of the stream's rows, which
        the caller copies out."""
        flat = pos * self.config.num_heads + head
        return self._rows(role, layer, flat, flat)[0]

    def _noise_block(
        self, role: int, layer: int, head, pos, n: int
    ) -> tuple[np.ndarray, int | None]:
        """The first ``n`` words of every row (pos, head), ``head`` and
        ``pos`` broadcast, as a new ``broadcast shape + (n,)`` array
        gathered from the rows between the least and the greatest
        (pos, head), and the position all rows share, or None."""
        head, heads = np.asarray(head), self.config.num_heads
        if head.size == 0 or np.size(pos) == 0:
            shape = np.broadcast_shapes(head.shape, np.shape(pos))
            return np.empty(shape + (n,)), None
        # Python min and max over the few head entries cost less than two
        # numpy reductions; a decode read's int position needs none.
        head_list = head.ravel().tolist()
        head_lo, head_hi = min(head_list), max(head_list)
        self.config.check_head(head_lo)
        self.config.check_head(head_hi)
        if isinstance(pos, np.ndarray):
            pos_lo, pos_hi = int(pos.min()), int(pos.max())
        else:
            pos_lo = pos_hi = int(pos)
        self._check_position(pos_lo)
        self._check_position(pos_hi)
        lo = pos_lo * heads + head_lo
        rows = self._rows(role, layer, lo, pos_hi * heads + head_hi)
        at = pos_lo if pos_lo == pos_hi else None
        return rows[(pos * heads - lo) + head, :n], at

    def _check_position(self, pos: int):
        if pos < 0:
            raise ModelError(f"position {pos} is negative")
        if pos >= self.max_context:
            raise ModelError(
                f"position {pos} exceeds max_context={self.max_context}; "
                "dominance bounds are only guaranteed below it"
            )

    def _query_plan(self, prompt_len: int) -> tuple[np.ndarray, np.ndarray]:
        """Each head's switch position, ``(layers, heads)``, and its planted
        query dims before it and from it on, ``(layers, heads, 2, 4)``, for
        prompts of ``prompt_len``. Decode step s reads position
        ``prompt_len + s - 1``; a stationary head's two phases agree. The
        tables of the last prompt length asked for are kept."""
        if self._query_tables[0] != prompt_len:
            peak = self._indicator * self._sqrt_d
            beta = _local_slope(self.dominance, self.local_window(prompt_len))
            planted = {
                Archetype.SPECIAL_DOMINANT: (_DIM_SPECIAL, peak),
                Archetype.COLUMN_SPARSE: (_DIM_COLUMN, peak),
                Archetype.LOCAL_DOMINANT: (
                    _DIM_POSITION, beta * self._sqrt_d / _POS_SCALE
                ),
            }
            cfg = self.config
            switch_pos = np.empty((cfg.num_layers, cfg.num_heads), np.int64)
            dims = np.zeros((cfg.num_layers, cfg.num_heads, 2, _NUM_PLANTED_DIMS))
            for (layer, head), plan in self.plan.items():
                phases = (plan.archetype, plan.switch_to or plan.archetype)
                for phase, archetype in enumerate(phases):
                    if archetype in planted:
                        dim, value = planted[archetype]
                        dims[layer, head, phase, dim] = value
                switch_pos[layer, head] = prompt_len + (plan.switch_step or 1) - 1
            self._query_tables = (prompt_len, switch_pos, dims)
        return self._query_tables[1:]

    def local_window(self, prompt_len: int) -> int:
        return math.ceil(self.local_window_frac * prompt_len)

    def prompt_token_ids(self, prompt_len: int) -> list[int]:
        """Deterministic prompt: position 0 special, fixed punctuation slots."""
        if prompt_len < 1:
            raise ModelError("prompt_len must be >= 1")
        seq = np.random.SeedSequence(self.config.seed, spawn_key=(_ROLE_PROMPT,))
        ids = np.random.Generator(np.random.PCG64(seq)).integers(
            _FIRST_WORD_ID, self.config.vocab_size, size=prompt_len
        ).tolist()
        ids[0] = min(self.vocab.special_ids)
        punct_ids = sorted(self.vocab.punctuation_ids)
        for slot, pos in enumerate(punctuation_positions(prompt_len)):
            if pos < prompt_len:
                ids[pos] = punct_ids[slot % len(punct_ids)]
        return [int(t) for t in ids]

    def k_row(self, layer: int, head, pos, klass, prompt_len: int) -> np.ndarray:
        self.config.check_layer(layer)
        if isinstance(head, np.ndarray) or isinstance(pos, np.ndarray):
            return self._k_block(layer, head, pos, klass, prompt_len)
        self.config.check_head(head)
        self._check_position(pos)
        _check_class(klass)
        d = self.config.head_dim
        row = np.empty(d)
        row[:_NUM_PLANTED_DIMS] = _CLASS_DIMS[klass]
        row[_DIM_COLUMN] = pos in sparse_columns(prompt_len)
        row[_DIM_POSITION] = pos * _POS_SCALE
        noise = self._noise(_ROLE_KEY, layer, head, pos)
        np.multiply(
            noise[: d - _NUM_PLANTED_DIMS], self._noise_amp, out=row[_NUM_PLANTED_DIMS:]
        )
        return row

    def _k_block(self, layer, head, pos, klass, prompt_len) -> np.ndarray:
        _check_class(klass)
        d = self.config.head_dim
        noise, at = self._noise_block(
            _ROLE_KEY, layer, head, pos, d - _NUM_PLANTED_DIMS
        )
        row = np.empty(noise.shape[:-1] + (d,))
        row[..., :_NUM_PLANTED_DIMS] = _CLASS_DIMS[klass]
        columns = sparse_columns(prompt_len)
        if at is None:
            row[..., _DIM_COLUMN] = np.isin(pos, columns)
            row[..., _DIM_POSITION] = pos * _POS_SCALE
        else:
            row[..., _DIM_COLUMN:_NUM_PLANTED_DIMS] = (at in columns, at * _POS_SCALE)
        np.multiply(noise, self._noise_amp, out=row[..., _NUM_PLANTED_DIMS:])
        return row

    def q_row(self, layer: int, head, pos, prompt_len: int) -> np.ndarray:
        self.config.check_layer(layer)
        if isinstance(head, np.ndarray) or isinstance(pos, np.ndarray):
            return self._q_block(layer, head, pos, prompt_len)
        self.config.check_head(head)
        self._check_position(pos)
        d = self.config.head_dim
        row = np.empty(d)
        switch_pos, dims = self._query_plan(prompt_len)
        row[:_NUM_PLANTED_DIMS] = dims[layer, head, int(pos >= switch_pos[layer, head])]
        noise = self._noise(_ROLE_QUERY, layer, head, pos)
        np.multiply(
            noise[: d - _NUM_PLANTED_DIMS],
            self._sqrt_d * self._noise_amp,
            out=row[_NUM_PLANTED_DIMS:],
        )
        return row

    def _q_block(self, layer, head, pos, prompt_len) -> np.ndarray:
        d = self.config.head_dim
        noise, _ = self._noise_block(
            _ROLE_QUERY, layer, head, pos, d - _NUM_PLANTED_DIMS
        )
        switch_pos, dims = self._query_plan(prompt_len)
        row = np.empty(noise.shape[:-1] + (d,))
        phase = (pos >= switch_pos[layer, head]).astype(np.intp)
        row[..., :_NUM_PLANTED_DIMS] = dims[layer, head, phase]
        np.multiply(
            noise, self._sqrt_d * self._noise_amp, out=row[..., _NUM_PLANTED_DIMS:]
        )
        return row

    def v_row(self, layer: int, head, pos) -> np.ndarray:
        self.config.check_layer(layer)
        d = self.config.head_dim
        if isinstance(head, np.ndarray) or isinstance(pos, np.ndarray):
            return self._noise_block(_ROLE_VALUE, layer, head, pos, d)[0]
        self.config.check_head(head)
        self._check_position(pos)
        return self._noise(_ROLE_VALUE, layer, head, pos)[:d].copy()

    def head_logits(self, concat_outputs: np.ndarray) -> np.ndarray:
        """Next-token logits: seeded linear map over concatenated outputs."""
        dim = self.config.num_layers * self.config.num_heads * self.config.head_dim
        if concat_outputs.shape != (dim,):
            raise ModelError(
                f"concatenated outputs have shape {concat_outputs.shape}, "
                f"expected ({dim},)"
            )
        if self._head_weights is None:
            self._head_weights = linear_head_weights(self.config)
        return self._head_weights @ concat_outputs


def cycling_plan(
    config: ModelConfig, archetypes: list[Archetype]
) -> dict[tuple[int, int], HeadPlan]:
    """Assign archetypes round-robin across the head grid."""
    if not archetypes:
        raise ModelError("no heads defined")
    grid = config.head_grid()
    return {key: HeadPlan(archetypes[i % len(archetypes)]) for i, key in enumerate(grid)}
