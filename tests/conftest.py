from __future__ import annotations

import numpy as np
import pytest

from adaptive_kv.attention import BLOCK_ROWS
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


def causal_rows(Q: np.ndarray, K: np.ndarray, block_rows: int = BLOCK_ROWS):
    """Each query row of the causal map softmax(Q K^T / sqrt(d)) in turn,
    under the engine's dtype contract: float32 logits from ``block_rows``-row
    products (the prompt pass's by default), float32 exponentials over the
    row's own prefix, and float64 quotients over their float64 sum."""
    Q, K = (np.asarray(M, dtype=np.float32) for M in (Q, K))
    n, d = Q.shape
    for s in range(0, n, block_rows):
        e = min(s + block_rows, n)
        logits = Q[s:e] @ K[:e].T / np.float32(np.sqrt(d))
        for i in range(s, e):
            prefix = logits[i - s, : i + 1]
            exp = np.exp(prefix - prefix.max())
            yield exp / exp.sum(dtype=np.float64)


def explicit_map(Q: np.ndarray, K: np.ndarray, block_rows: int = BLOCK_ROWS) -> np.ndarray:
    """The whole causal map from ``causal_rows``, as the oracle for the
    statistics ``causal_attention`` streams."""
    M = np.zeros((Q.shape[0], Q.shape[0]))
    for i, row in enumerate(causal_rows(Q, K, block_rows)):
        M[i, : i + 1] = row
    return M


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
