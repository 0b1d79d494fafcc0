from __future__ import annotations

import numpy as np
import pytest

from adaptive_kv.attention import softmax_rows
from adaptive_kv.engine import prompt_head_data
from adaptive_kv.model import (
    Archetype,
    HeadPlan,
    ModelConfig,
    SyntheticModel,
)
from adaptive_kv.tokens import TokenClass


def make_codes(classes: list[TokenClass]) -> np.ndarray:
    return np.array(classes, dtype=np.int8)


def explicit_map(Q: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The whole causal map softmax(Q K^T / sqrt(d)), as the oracle for the
    statistics ``causal_attention`` streams."""
    logits = Q @ K.T / np.sqrt(float(Q.shape[1]))
    return softmax_rows(logits, causal_lengths=range(1, Q.shape[0] + 1))


def head_maps(model, tokens: list[int], prompt_len: int | None = None) -> dict:
    """Every head's explicit map and the tokens' class codes, materialised
    at once."""
    p = len(tokens) if prompt_len is None else prompt_len
    maps = {}
    for (layer, head), K, _, _, codes in prompt_head_data(model, tokens, prompt_len):
        Q = np.array([model.q_row(layer, head, pos, p) for pos in range(len(tokens))])
        maps[(layer, head)] = (explicit_map(Q, K), codes)
    return maps


def random_context(rng: np.random.Generator, max_len: int = 24) -> tuple:
    """Random ``(codes, scores, prompt_len)``, as ``retained_indices`` takes them."""
    current_len = int(rng.integers(1, max_len + 1))
    prompt_len = int(rng.integers(1, current_len + 1))
    codes = rng.integers(0, len(TokenClass), size=current_len).astype(np.int8)
    return codes, rng.uniform(0.0, 5.0, size=current_len), prompt_len


MIXED_PLAN_4X4 = {
    (0, 0): HeadPlan(Archetype.SPECIAL_DOMINANT),
    (0, 1): HeadPlan(Archetype.SPECIAL_DOMINANT),
    (0, 2): HeadPlan(Archetype.COLUMN_SPARSE),
    (0, 3): HeadPlan(Archetype.DIFFUSE),
    (1, 0): HeadPlan(Archetype.SPECIAL_DOMINANT),
    (1, 1): HeadPlan(Archetype.COLUMN_SPARSE),
    (1, 2): HeadPlan(Archetype.LOCAL_DOMINANT),
    (1, 3): HeadPlan(Archetype.SPECIAL_DOMINANT),
    (2, 0): HeadPlan(Archetype.COLUMN_SPARSE),
    (2, 1): HeadPlan(Archetype.SPECIAL_DOMINANT),
    (2, 2): HeadPlan(Archetype.DIFFUSE),
    (2, 3): HeadPlan(Archetype.SPECIAL_DOMINANT),
    (3, 0): HeadPlan(Archetype.LOCAL_DOMINANT),
    (3, 1): HeadPlan(Archetype.SPECIAL_DOMINANT),
    (3, 2): HeadPlan(Archetype.COLUMN_SPARSE),
    (3, 3): HeadPlan(Archetype.SPECIAL_DOMINANT),
}


@pytest.fixture(scope="session")
def mixed_model() -> SyntheticModel:
    config = ModelConfig(num_layers=4, num_heads=4, head_dim=16, vocab_size=48, seed=101)
    return SyntheticModel(config, MIXED_PLAN_4X4, dominance=0.97)


@pytest.fixture(scope="session")
def small_model() -> SyntheticModel:
    config = ModelConfig(num_layers=2, num_heads=2, head_dim=16, vocab_size=32, seed=7)
    plan = {
        (0, 0): HeadPlan(Archetype.SPECIAL_DOMINANT),
        (0, 1): HeadPlan(Archetype.LOCAL_DOMINANT),
        (1, 0): HeadPlan(Archetype.COLUMN_SPARSE),
        (1, 1): HeadPlan(Archetype.DIFFUSE),
    }
    return SyntheticModel(config, plan, dominance=0.97)
