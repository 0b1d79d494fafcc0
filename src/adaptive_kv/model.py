"""Deterministic synthetic attention models with planted head structures.

Each head follows one archetype: its query vectors plant a large logit on
the target key columns (special-class tokens, the recent window, or a
fixed sparse column set) and bounded uniform noise elsewhere, so the
archetype's attention-mass bound holds at every decoding step by
construction rather than by sampling. All randomness is derived from
``SeedSequence(config.seed, spawn_key=...)`` streams, making every row a
pure function of (seed, layer, head, position) regardless of call order.
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
        missing = [key for key in config.head_grid() if key not in normalized]
        if missing:
            raise ModelError(f"plan does not cover heads {missing}")
        extra = [key for key in normalized if key not in set(config.head_grid())]
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

    def _rng(self, role: int, *key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.config.seed, spawn_key=(role, *key))
        return np.random.Generator(np.random.PCG64(seq))

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


def synth_model(
    config: ModelConfig,
    archetype_plan: dict[tuple[int, int], HeadPlan | Archetype],
    dominance: float,
    **kwargs,
) -> SyntheticModel:
    """Build a deterministic planted-structure model handle."""
    return SyntheticModel(config, archetype_plan, dominance, **kwargs)


def uniform_plan(
    config: ModelConfig, archetype: Archetype
) -> dict[tuple[int, int], HeadPlan]:
    return {key: HeadPlan(archetype) for key in config.head_grid()}


def cycling_plan(
    config: ModelConfig, archetypes: list[Archetype]
) -> dict[tuple[int, int], HeadPlan]:
    """Assign archetypes round-robin across the head grid."""
    if not archetypes:
        raise ModelError("no heads defined")
    grid = config.head_grid()
    return {key: HeadPlan(archetypes[i % len(archetypes)]) for i, key in enumerate(grid)}
