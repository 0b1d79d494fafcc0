"""Deterministic synthetic attention models with planted head structures.

Each head follows one archetype: its query vectors plant a large logit on
the target key columns (special-class tokens, the recent window, or a
fixed sparse column set) and bounded uniform noise elsewhere, so the
archetype's attention-mass bound holds at every decoding step by
construction rather than by sampling. All randomness is derived from
``SeedSequence(config.seed, spawn_key=...)`` streams, making every row a
pure function of (seed, layer, head, position) regardless of call order.
Rows build no ``SeedSequence`` of their own: ``SyntheticModel._rng`` takes
numpy's pool once per stream prefix (role, layer, head), replays the
mixing of the position word and ``generate_state`` in Python, and hands
the state words to ``PCG64``. So each row's generator and draws equal
those of ``PCG64(SeedSequence(seed, spawn_key=key))``, as
``tests/test_row_seeding.py`` checks against numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# SeedSequence's pool size and hash constants (numpy's bit_generator.pyx).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _entropy_words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, as SeedSequence splits entropy."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(
    hash_const: int, mult: int, count: int
) -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) of ``count`` hashes in a row, from ``hash_const``.

    SeedSequence advances its hash constant once per hash whatever the
    data, so these are fixed by the hash's place in the sequence.
    """
    consts = []
    for _ in range(count):
        step = hash_const * mult & _MASK32
        consts.append((hash_const, step))
        hash_const = step
    return tuple(consts)


@lru_cache(maxsize=1 << 13)
def _word_hashes(word: int, hash_const: int) -> tuple[tuple[int, ...], int]:
    """One entropy word hashed for each pool lane, times ``_MIX_MULT_R``.

    They depend only on the word and the hash constant reached before it,
    so every row stream of a model shares them for its position word.
    """
    consts = _hash_consts(hash_const, _MULT_A, _POOL_SIZE)
    hashes = []
    for xor, mult in consts:
        value = (word ^ xor) * mult & _MASK32
        hashes.append(_MIX_MULT_R * (value ^ value >> 16))
    return tuple(hashes), consts[-1][1]


def _absorb(
    pool: tuple[int, ...], hash_const: int, words: list[int]
) -> tuple[tuple[int, ...], int]:
    """Mix entropy words past the pool size into every pool lane."""
    for word in words:
        (h0, h1, h2, h3), hash_const = _word_hashes(word, hash_const)
        p0, p1, p2, p3 = pool
        p0 = (_MIX_MULT_L * p0 - h0) & _MASK32
        p1 = (_MIX_MULT_L * p1 - h1) & _MASK32
        p2 = (_MIX_MULT_L * p2 - h2) & _MASK32
        p3 = (_MIX_MULT_L * p3 - h3) & _MASK32
        pool = (p0 ^ p0 >> 16, p1 ^ p1 >> 16, p2 ^ p2 >> 16, p3 ^ p3 >> 16)
    return pool, hash_const


# generate_state's (xor, multiplier) for each of the eight uint32 words
# PCG64 asks for.
((_X0, _M0), (_X1, _M1), (_X2, _M2), (_X3, _M3),
 (_X4, _M4), (_X5, _M5), (_X6, _M6), (_X7, _M7)) = _hash_consts(
    _INIT_B, _MULT_B, 2 * _POOL_SIZE
)  # fmt: skip


def _state_words(pool: tuple[int, ...]) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of a finished pool."""
    p0, p1, p2, p3 = pool
    a = (p0 ^ _X0) * _M0 & _MASK32
    b = (p1 ^ _X1) * _M1 & _MASK32
    c = (p2 ^ _X2) * _M2 & _MASK32
    d = (p3 ^ _X3) * _M3 & _MASK32
    e = (p0 ^ _X4) * _M4 & _MASK32
    f = (p1 ^ _X5) * _M5 & _MASK32
    g = (p2 ^ _X6) * _M6 & _MASK32
    h = (p3 ^ _X7) * _M7 & _MASK32
    return np.array(
        (
            a ^ a >> 16 | (b ^ b >> 16) << 32,
            c ^ c >> 16 | (d ^ d >> 16) << 32,
            e ^ e >> 16 | (f ^ f >> 16) << 32,
            g ^ g >> 16 | (h ^ h >> 16) << 32,
        ),
        dtype=np.uint64,
    )


class _StateWords(ISeedSequence):
    """Hands PCG64 the state words its SeedSequence would have generated."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 makes exactly one request: four uint64 words.
        return self.words


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
        self._pools: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}

    def _pool(self, prefix: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """Pool and hash constant of ``SeedSequence(seed, spawn_key=prefix)``.

        One ``SeedSequence`` per prefix; rows replay only their last word.
        The constant advances once per hash, and each entropy word (the run
        entropy padded to ``_POOL_SIZE``) is hashed into every pool lane.
        """
        state = self._pools.get(prefix)
        if state is None:
            seed = self.config.seed
            pool = np.random.SeedSequence(seed, spawn_key=prefix).pool
            words = max(len(_entropy_words(seed)), _POOL_SIZE)
            words += sum(len(_entropy_words(k)) for k in prefix)
            hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * words, 1 << 32) & _MASK32
            state = tuple(pool.tolist()), hash_const
            self._pools[prefix] = state
        return state

    def _rng(self, role: int, *key: int) -> np.random.Generator:
        """``Generator(PCG64(SeedSequence(seed, spawn_key=(role, *key))))``.

        Only the last key entry is mixed per call; the pool before it is
        memoised per stream.
        """
        stream = (role, *key)
        pool, hash_const = self._pool(stream[:-1])
        pool, _ = _absorb(pool, hash_const, _entropy_words(stream[-1]))
        return np.random.Generator(np.random.PCG64(_StateWords(_state_words(pool))))

    def _check_position(self, pos: int):
        if pos >= self.max_context:
            raise ModelError(
                f"position {pos} exceeds max_context={self.max_context}; "
                "dominance bounds are only guaranteed below it"
            )

    def local_window(self, prompt_len: int) -> int:
        return math.ceil(self.local_window_frac * prompt_len)

    def prompt_token_ids(self, prompt_len: int) -> list[int]:
        """Deterministic prompt: position 0 special, fixed punctuation slots."""
        if prompt_len < 1:
            raise ModelError("prompt_len must be >= 1")
        rng = self._rng(_ROLE_PROMPT)
        ids = rng.integers(
            _FIRST_WORD_ID, self.config.vocab_size, size=prompt_len
        ).tolist()
        ids[0] = min(self.vocab.special_ids)
        punct_ids = sorted(self.vocab.punctuation_ids)
        for slot, pos in enumerate(punctuation_positions(prompt_len)):
            if pos < prompt_len:
                ids[pos] = punct_ids[slot % len(punct_ids)]
        return [int(t) for t in ids]

    def k_row(
        self, layer: int, head: int, pos: int, klass: TokenClass, prompt_len: int
    ) -> np.ndarray:
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
        rng = self._rng(_ROLE_KEY, layer, head, pos)
        row[_NUM_PLANTED_DIMS:] = rng.uniform(
            -self._noise_amp, self._noise_amp, d - _NUM_PLANTED_DIMS
        )
        return row

    def q_row(self, layer: int, head: int, pos: int, prompt_len: int) -> np.ndarray:
        self._check_position(pos)
        d = self.config.head_dim
        row = np.zeros(d)
        archetype = self.plan[(layer, head)].archetype_at(pos, prompt_len)
        if archetype is Archetype.SPECIAL_DOMINANT:
            row[_DIM_SPECIAL] = self._indicator * self._sqrt_d
        elif archetype is Archetype.COLUMN_SPARSE:
            row[_DIM_COLUMN] = self._indicator * self._sqrt_d
        elif archetype is Archetype.LOCAL_DOMINANT:
            beta = _local_slope(self.dominance, self.local_window(prompt_len))
            row[_DIM_POSITION] = beta * self._sqrt_d / _POS_SCALE
        rng = self._rng(_ROLE_QUERY, layer, head, pos)
        row[_NUM_PLANTED_DIMS:] = self._sqrt_d * rng.uniform(
            -self._noise_amp, self._noise_amp, d - _NUM_PLANTED_DIMS
        )
        return row

    def v_row(self, layer: int, head: int, pos: int) -> np.ndarray:
        self._check_position(pos)
        rng = self._rng(_ROLE_VALUE, layer, head, pos)
        return rng.uniform(-1.0, 1.0, self.config.head_dim)

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
