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
Every read jumps its stream to the counter it starts at, so a row is a
pure function of (seed, role, layer, head, pos) whatever the call order.
Rows are laid out back to back with no gaps, positions major and heads
minor, so one draw holds n positions' rows for every head of a layer.

Row methods take one row or a block. ``k_row``, ``q_row`` and ``v_row``
with int ``head`` and ``pos`` return one ``(d,)`` row. With an int array
for either, ``head`` and ``pos`` broadcast together, ``k_row``'s
``klass`` is a ``CLASS_CODE`` array that broadcasts to their shape, and
the result has shape ``broadcast shape + (d,)``, each row bit-equal to
the same row read alone. A decode step reads ``(H, d)`` with ``pos`` an int
and ``head`` every head; the prompt pass reads ``(n, H, d)`` with ``pos``
as ``positions[:, None]``. A ``SyntheticModel`` block is one draw over
the counter span its rows cover, with the planted dims filled by array
code; the model keeps no drawn rows between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .tokens import CLASS_CODE, TokenClass, VocabMetadata

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

    def archetype_at(self, pos: int, prompt_len: int) -> Archetype:
        if self.switch_to is None:
            return self.archetype
        switch_pos = prompt_len + self.switch_step - 1
        return self.switch_to if pos >= switch_pos else self.archetype


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
        # Philox blocks (four words each) per noise row, and each
        # (role, layer) stream's generator with the block it stands at.
        self._row_blocks = (config.head_dim + 3) // 4
        self._streams: dict[tuple[int, int], list] = {}

    def _noise(self, role: int, layer: int, row: int, n: int) -> np.ndarray:
        """``n`` uniform(-1, 1) words of the (role, layer) stream from the
        start of flat row ``row = pos * H + head``, read at that row's
        counter whatever was read before."""
        stream = self._streams.get((role, layer))
        if stream is None:
            seq = np.random.SeedSequence(self.config.seed, spawn_key=(role, layer))
            stream = [np.random.Generator(np.random.Philox(seq)), 0]
            self._streams[(role, layer)] = stream
        gen, at = stream
        start = row * self._row_blocks
        gen.bit_generator.advance((start - at) % _PHILOX_PERIOD)
        stream[1] = start + (n + 3) // 4
        return gen.uniform(-1.0, 1.0, n)

    def _noise_block(
        self, role: int, layer: int, head: np.ndarray, pos: np.ndarray, n: int
    ) -> np.ndarray:
        """The first ``n`` words of every row (pos, head), ``head`` and
        ``pos`` broadcast, sliced from one draw over the rows' counter span."""
        flat = pos * self.config.num_heads + head
        if flat.size == 0:
            return np.empty(flat.shape + (n,))
        self._check_position(int(pos.min()))
        self._check_position(int(pos.max()))
        lo = int(flat.min())
        width = 4 * self._row_blocks
        span = self._noise(role, layer, lo, (int(flat.max()) - lo + 1) * width)
        return span.reshape(-1, width)[flat - lo, :n]

    def _check_position(self, pos: int):
        if pos < 0:
            raise ModelError(f"position {pos} is negative")
        if pos >= self.max_context:
            raise ModelError(
                f"position {pos} exceeds max_context={self.max_context}; "
                "dominance bounds are only guaranteed below it"
            )

    def _query_peak(
        self, archetype: Archetype, prompt_len: int
    ) -> tuple[int, float] | None:
        """The planted dim of a query row under ``archetype`` and its value,
        or None for a diffuse row, which plants nothing."""
        if archetype is Archetype.SPECIAL_DOMINANT:
            return _DIM_SPECIAL, self._indicator * self._sqrt_d
        if archetype is Archetype.COLUMN_SPARSE:
            return _DIM_COLUMN, self._indicator * self._sqrt_d
        if archetype is Archetype.LOCAL_DOMINANT:
            beta = _local_slope(self.dominance, self.local_window(prompt_len))
            return _DIM_POSITION, beta * self._sqrt_d / _POS_SCALE
        return None

    @cached_property
    def _plan_codes(self) -> np.ndarray:
        """``(3, layers, heads)`` ints: each head's archetype and the one it
        switches to (as indices into ``Archetype``) and its switch step; a
        stationary head switches to its own archetype at step 1."""
        order = list(Archetype)
        codes = np.empty((3, self.config.num_layers, self.config.num_heads), np.int64)
        for (layer, head), plan in self.plan.items():
            switched = plan.switch_to is not None
            codes[:, layer, head] = (
                order.index(plan.archetype),
                order.index(plan.switch_to if switched else plan.archetype),
                plan.switch_step if switched else 1,
            )
        return codes

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
        if isinstance(head, np.ndarray) or isinstance(pos, np.ndarray):
            head, pos = np.asarray(head), np.asarray(pos)
            return self._k_block(layer, head, pos, klass, prompt_len)
        self._check_position(pos)
        d = self.config.head_dim
        row = np.zeros(d)
        if klass is TokenClass.SPECIAL:
            row[_DIM_SPECIAL] = 1.0
        elif klass is TokenClass.PUNCTUATION:
            row[_DIM_PUNCT] = 1.0
        if pos in sparse_columns(prompt_len):
            row[_DIM_COLUMN] = 1.0
        row[_DIM_POSITION] = pos * _POS_SCALE
        noise = self._noise(
            _ROLE_KEY, layer, pos * self.config.num_heads + head, d - _NUM_PLANTED_DIMS
        )
        np.multiply(noise, self._noise_amp, out=row[_NUM_PLANTED_DIMS:])
        return row

    def _k_block(self, layer, head, pos, klass, prompt_len) -> np.ndarray:
        d = self.config.head_dim
        noise = self._noise_block(_ROLE_KEY, layer, head, pos, d - _NUM_PLANTED_DIMS)
        klass = np.asarray(klass)
        row = np.zeros(noise.shape[:-1] + (d,))
        row[..., _DIM_SPECIAL] = klass == CLASS_CODE[TokenClass.SPECIAL]
        row[..., _DIM_PUNCT] = klass == CLASS_CODE[TokenClass.PUNCTUATION]
        for col in sparse_columns(prompt_len):
            np.copyto(row[..., _DIM_COLUMN], 1.0, where=pos == col)
        row[..., _DIM_POSITION] = pos * _POS_SCALE
        np.multiply(noise, self._noise_amp, out=row[..., _NUM_PLANTED_DIMS:])
        return row

    def q_row(self, layer: int, head, pos, prompt_len: int) -> np.ndarray:
        if isinstance(head, np.ndarray) or isinstance(pos, np.ndarray):
            head, pos = np.asarray(head), np.asarray(pos)
            return self._q_block(layer, head, pos, prompt_len)
        self._check_position(pos)
        d = self.config.head_dim
        row = np.zeros(d)
        archetype = self.plan[(layer, head)].archetype_at(pos, prompt_len)
        peak = self._query_peak(archetype, prompt_len)
        if peak is not None:
            row[peak[0]] = peak[1]
        noise = self._noise(
            _ROLE_QUERY, layer, pos * self.config.num_heads + head, d - _NUM_PLANTED_DIMS
        )
        np.multiply(noise, self._sqrt_d * self._noise_amp, out=row[_NUM_PLANTED_DIMS:])
        return row

    def _q_block(self, layer, head, pos, prompt_len) -> np.ndarray:
        d = self.config.head_dim
        noise = self._noise_block(_ROLE_QUERY, layer, head, pos, d - _NUM_PLANTED_DIMS)
        row = np.zeros(noise.shape[:-1] + (d,))
        base, switch_to, switch_step = self._plan_codes[:, layer, head]
        code = np.where(pos >= prompt_len + switch_step - 1, switch_to, base)
        for index, archetype in enumerate(Archetype):
            peak = self._query_peak(archetype, prompt_len)
            if peak is not None:
                np.copyto(row[..., peak[0]], peak[1], where=code == index)
        np.multiply(
            noise, self._sqrt_d * self._noise_amp, out=row[..., _NUM_PLANTED_DIMS:]
        )
        return row

    def v_row(self, layer: int, head, pos) -> np.ndarray:
        d = self.config.head_dim
        if isinstance(head, np.ndarray) or isinstance(pos, np.ndarray):
            head, pos = np.asarray(head), np.asarray(pos)
            return self._noise_block(_ROLE_VALUE, layer, head, pos, d)
        self._check_position(pos)
        return self._noise(_ROLE_VALUE, layer, pos * self.config.num_heads + head, d)

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
