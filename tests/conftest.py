from __future__ import annotations

import numpy as np
import pytest

from adaptive_kv.model import (
    Archetype,
    HeadPlan,
    ModelConfig,
    SyntheticModel,
)
from adaptive_kv.policies import PolicyContext
from adaptive_kv.tokens import CLASS_CODE, TokenClass


def make_codes(classes: list[TokenClass]) -> np.ndarray:
    return np.array([CLASS_CODE[klass] for klass in classes], dtype=np.int8)


def random_context(rng: np.random.Generator, max_len: int = 24) -> PolicyContext:
    current_len = int(rng.integers(1, max_len + 1))
    prompt_len = int(rng.integers(1, current_len + 1))
    classes = [
        [TokenClass.SPECIAL, TokenClass.PUNCTUATION, TokenClass.OTHER][i]
        for i in rng.integers(0, 3, size=current_len)
    ]
    scores = rng.uniform(0.0, 5.0, size=current_len)
    return PolicyContext(
        codes=make_codes(classes),
        prompt_len=prompt_len,
        current_len=current_len,
        cumulative_scores=scores,
    )


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
