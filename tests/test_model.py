from __future__ import annotations

import numpy as np
import pytest

from adaptive_kv.attention import PromptStats
from adaptive_kv.engine import GenerationConfig, prompt_head_data, reference_generate
from adaptive_kv.model import (
    Archetype,
    HeadPlan,
    ModelConfig,
    ModelError,
    SyntheticModel,
    punctuation_positions,
    sparse_columns,
)
from adaptive_kv.profiler import recovery_ratio
from adaptive_kv.tokens import CLASS_CODE, TokenClass, classify_tokens
from conftest import explicit_map, head_maps

CONFIG = ModelConfig(num_layers=1, num_heads=4, head_dim=16, vocab_size=32, seed=11)
PLAN = {
    (0, 0): HeadPlan(Archetype.SPECIAL_DOMINANT),
    (0, 1): HeadPlan(Archetype.LOCAL_DOMINANT),
    (0, 2): HeadPlan(Archetype.COLUMN_SPARSE),
    (0, 3): HeadPlan(Archetype.DIFFUSE),
}
DOMINANCE = 0.97
PROMPT_LEN = 48


def uniform_plan(
    config: ModelConfig, archetype: Archetype
) -> dict[tuple[int, int], HeadPlan]:
    return {key: HeadPlan(archetype) for key in config.head_grid()}


@pytest.fixture(scope="module")
def model():
    return SyntheticModel(CONFIG, PLAN, DOMINANCE)


@pytest.fixture(scope="module")
def decoded_maps(model):
    """Explicit attention maps at decoding steps 1, 10, 20, 30."""
    prompt = model.prompt_token_ids(PROMPT_LEN)
    run = reference_generate(model, prompt, GenerationConfig(max_new_tokens=29))
    all_tokens = prompt + run.tokens
    return {
        step: head_maps(model, all_tokens[: PROMPT_LEN + step - 1], PROMPT_LEN)
        for step in (1, 10, 20, 30)
    }


def _class_positions(model, tokens, klass):
    anns = classify_tokens(tokens, model.vocab)
    return [a.position for a in anns if a.klass is klass]


def test_same_seed_bitwise_identical(model):
    twin = SyntheticModel(CONFIG, PLAN, DOMINANCE)
    assert model.prompt_token_ids(PROMPT_LEN) == twin.prompt_token_ids(PROMPT_LEN)
    for pos in (0, 7, 31):
        a = model.k_row(0, 1, pos, TokenClass.OTHER, PROMPT_LEN)
        b = twin.k_row(0, 1, pos, TokenClass.OTHER, PROMPT_LEN)
        assert np.array_equal(a, b)
        assert np.array_equal(
            model.q_row(0, 2, pos, PROMPT_LEN), twin.q_row(0, 2, pos, PROMPT_LEN)
        )
        assert np.array_equal(model.v_row(0, 3, pos), twin.v_row(0, 3, pos))


def test_identical_seeds_identical_generations(model):
    twin = SyntheticModel(CONFIG, PLAN, DOMINANCE)
    prompt = model.prompt_token_ids(16)
    a = reference_generate(model, prompt, GenerationConfig(max_new_tokens=10))
    b = reference_generate(twin, prompt, GenerationConfig(max_new_tokens=10))
    assert a.tokens == b.tokens


def test_prompt_layout(model):
    prompt = model.prompt_token_ids(PROMPT_LEN)
    anns = classify_tokens(prompt, model.vocab)
    assert anns[0].klass is TokenClass.SPECIAL
    expected_punct = set(punctuation_positions(PROMPT_LEN))
    actual_punct = {a.position for a in anns if a.klass is TokenClass.PUNCTUATION}
    assert actual_punct == expected_punct


def test_special_dominance_holds_at_every_step(model, decoded_maps):
    for step, head_data in decoded_maps.items():
        A, ctx = head_data[(0, 0)]
        specials = np.flatnonzero(ctx.codes == CLASS_CODE[TokenClass.SPECIAL])
        per_row = A[:, specials].sum(axis=1)
        assert per_row.min() >= DOMINANCE, f"step {step}"
        stats = PromptStats(A.sum(axis=0), A[-1])
        assert recovery_ratio(stats, specials) >= DOMINANCE


def test_local_dominance_holds_at_every_step(model, decoded_maps):
    window = model.local_window(PROMPT_LEN)
    for step, head_data in decoded_maps.items():
        A = head_data[(0, 1)][0]
        for i in range(A.shape[0]):
            lo = max(0, i - window + 1)
            assert A[i, lo : i + 1].sum() >= DOMINANCE, f"step {step} row {i}"


def test_column_sparse_dominance_holds_at_every_step(model, decoded_maps):
    cols = sparse_columns(PROMPT_LEN)
    for step, head_data in decoded_maps.items():
        A = head_data[(0, 2)][0]
        for i in range(A.shape[0]):
            visible = [c for c in cols if c <= i]
            assert A[i, visible].sum() >= DOMINANCE, f"step {step} row {i}"


def test_diffuse_head_has_no_dominant_subset(model, decoded_maps):
    # No subset covering < 80% of the visible positions reaches dominance;
    # checked on the current query row at each step.
    for step, head_data in decoded_maps.items():
        A = head_data[(0, 3)][0]
        row = A[-1]
        visible = A.shape[0]
        best_subset = np.sort(row)[::-1][: max(1, int(0.8 * visible) - 1)]
        assert best_subset.sum() < DOMINANCE, f"step {step}"


def test_diffuse_single_column_bound():
    config = ModelConfig(num_layers=1, num_heads=1, head_dim=16, vocab_size=32, seed=3)
    model = SyntheticModel(config, uniform_plan(config, Archetype.DIFFUSE), 0.97)
    prompt = model.prompt_token_ids(10)
    [(_, K, _, stats, _)] = prompt_head_data(model, prompt)
    Q = np.array([model.q_row(0, 0, pos, len(prompt)) for pos in range(len(prompt))])
    A = explicit_map(Q, K)
    assert np.array_equal(stats.last_row, A[-1])
    assert A[-1].max() <= 0.2


def test_dominance_out_of_range_rejected():
    for bad in (0.5, 1.0, -0.1, 1.5):
        with pytest.raises(ModelError, match="dominance"):
            SyntheticModel(CONFIG, PLAN, bad)


def test_plan_must_cover_grid():
    with pytest.raises(ModelError, match="does not cover"):
        SyntheticModel(CONFIG, {(0, 0): HeadPlan(Archetype.DIFFUSE)}, 0.97)
    with pytest.raises(ModelError, match="no heads defined"):
        SyntheticModel(CONFIG, {}, 0.97)


def test_plan_must_stay_inside_grid():
    outside = {**PLAN, (1, 0): HeadPlan(Archetype.DIFFUSE), (0, 4): Archetype.DIFFUSE}
    with pytest.raises(
        ModelError,
        match=r"^plan names heads outside the model grid: \[\(1, 0\), \(0, 4\)\]$",
    ):
        SyntheticModel(CONFIG, outside, DOMINANCE)
    # A plan that misses a head is reported before one that names extra heads.
    del outside[(0, 2)]
    with pytest.raises(ModelError, match=r"^plan does not cover heads \[\(0, 2\)\]$"):
        SyntheticModel(CONFIG, outside, DOMINANCE)


def test_config_counts_validated():
    with pytest.raises(ModelError, match="num_layers"):
        ModelConfig(0, 1, 16, 32, 0)


def test_phase_switch_changes_archetype_at_position():
    plan = dict(PLAN)
    plan[(0, 0)] = HeadPlan(
        Archetype.SPECIAL_DOMINANT,
        switch_to=Archetype.LOCAL_DOMINANT,
        switch_step=15,
    )
    model = SyntheticModel(CONFIG, plan, DOMINANCE)
    n = 16
    # Decode step 15 begins at absolute position n + 14.
    before = model.q_row(0, 0, n + 13, n)
    after = model.q_row(0, 0, n + 14, n)
    assert before[0] > 0.0 and after[0] == 0.0
    assert after[3] > 0.0


def test_switch_requires_both_fields():
    with pytest.raises(ModelError, match="switch"):
        HeadPlan(Archetype.DIFFUSE, switch_to=Archetype.LOCAL_DOMINANT)
