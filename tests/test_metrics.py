"""Report builders that stream the prompt pass, against whole-model profiles."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from adaptive_kv.engine import GenerationConfig, prompt_head_data, reference_generate
from adaptive_kv.metrics import (
    ConsistencyEntry,
    TradeoffPoint,
    consistency_report,
    tradeoff_curve,
)
from adaptive_kv.policies import format_policy
from adaptive_kv.profiler import (
    ProfilerConfig,
    RowAveraging,
    profile_model,
)

PROMPT_LEN = 40


def all_maps(model, tokens, prompt_len=None):
    """Every head's ``(stats, codes, prompt_len)``, materialised at once."""
    p = len(tokens) if prompt_len is None else prompt_len
    return {
        key: (stats, codes, p)
        for key, _, _, stats, codes in prompt_head_data(model, tokens, prompt_len)
    }


@pytest.mark.parametrize(
    "base",
    [
        ProfilerConfig(),
        ProfilerConfig(rows=RowAveraging.LAST_ROW),
    ],
    ids=["recovery-all", "recovery-last"],
)
def test_tradeoff_points_equal_per_threshold_profiles(mixed_model, base):
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    T_values = [0.5, 0.9, 0.95, 0.99, 1.0]
    head_data = all_maps(mixed_model, prompt)
    expected = []
    for T in T_values:
        profile = profile_model(head_data, replace(base, recovery_threshold=T))
        costs = [d.cost_tokens for _, d in profile.items()]
        recoveries = [d.recovery for _, d in profile.items()]
        expected.append(
            TradeoffPoint(
                T=T,
                pruned_ratio=1.0 - sum(costs) / (len(costs) * PROMPT_LEN),
                mean_recovery=min(1.0, float(np.mean(recoveries))),
            )
        )
    assert tradeoff_curve(mixed_model, prompt, T_values, base_cfg=base) == expected


def test_consistency_entries_equal_per_step_profiles(mixed_model):
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    cfg = ProfilerConfig()
    # A repeated step keeps its place in the listed order.
    steps = [1, 1, 3, 6]
    run = reference_generate(mixed_model, prompt, GenerationConfig(steps[-1] - 1))
    all_tokens = prompt + run.tokens
    expected, first = [], {}
    for step in steps:
        tokens = all_tokens[: PROMPT_LEN + step - 1]
        profile = profile_model(all_maps(mixed_model, tokens, PROMPT_LEN), cfg)
        for (layer, head), decision in profile.items():
            if step == 1:
                first[(layer, head)] = decision.policy
            expected.append(
                ConsistencyEntry(
                    layer,
                    head,
                    step,
                    format_policy(decision.policy),
                    decision.policy == first[(layer, head)],
                )
            )
    assert consistency_report(mixed_model, prompt, steps, cfg) == expected
