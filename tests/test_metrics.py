"""Report builders that stream the prompt pass, against whole-model profiles."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from adaptive_kv.engine import (
    GenerationConfig,
    Nucleus,
    generate,
    prompt_head_data,
    reference_generate,
)
from adaptive_kv.metrics import (
    ComparisonRow,
    ConsistencyEntry,
    MetricsError,
    TradeoffPoint,
    compare_adaptive_vs_fixed,
    consistency_report,
    run_mean_recovery,
    run_pruned_ratio,
    tradeoff_curve,
)
from adaptive_kv.policies import PolicyAtom, feasible_set, format_policy, parse_policy
from adaptive_kv.profiler import ProfilerConfig, profile_model

PROMPT_LEN = 40


def all_maps(model, tokens, prompt_len=None):
    """Every head's ``(stats, codes, prompt_len)``, materialised at once."""
    p = len(tokens) if prompt_len is None else prompt_len
    return {
        key: (stats, codes, p)
        for key, _, _, stats, codes in prompt_head_data(model, tokens, prompt_len)
    }


def test_tradeoff_points_equal_per_threshold_profiles(mixed_model):
    base = ProfilerConfig()
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


def test_run_pruned_ratio_is_the_hand_counted_evicted_fraction(mixed_model):
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    run = generate(mixed_model, prompt, ProfilerConfig(), GenerationConfig(12))
    # At step s an uncompressed cache holds PROMPT_LEN + s - 1 rows per head.
    per_step = []
    for rec in run.records:
        full = PROMPT_LEN + rec.step - 1
        evicted = [Fraction(full - count, full) for count in rec.head_retained.values()]
        per_step.append(sum(evicted) / len(evicted))
    expected = sum(per_step) / len(per_step)
    assert 0 < expected < 1
    assert run_pruned_ratio(run, PROMPT_LEN) == pytest.approx(float(expected), rel=1e-12)


def test_run_metrics_without_records_or_diagnostics_raise(mixed_model):
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    empty = generate(mixed_model, prompt, ProfilerConfig(), GenerationConfig(0))
    with pytest.raises(MetricsError, match="no step records"):
        run_pruned_ratio(empty, PROMPT_LEN)
    plain = generate(
        mixed_model, prompt, ProfilerConfig(), GenerationConfig(4), diagnostics=False
    )
    with pytest.raises(MetricsError, match="no recovery diagnostics"):
        run_mean_recovery(plain)


def test_comparison_rows_equal_direct_generate_runs(mixed_model):
    prompt = mixed_model.prompt_token_ids(PROMPT_LEN)
    cfg = ProfilerConfig(recovery_threshold=0.9)
    gen_cfg = GenerationConfig(8, Nucleus(seed=2))
    fixed = [parse_policy("special+punct"), parse_policy("local(r_l=0.25)")]
    dropped = replace(cfg, feasible=tuple(feasible_set(drop=[PolicyAtom.FREQUENT])))
    rows = compare_adaptive_vs_fixed(
        mixed_model, prompt, cfg, fixed, gen_cfg, extra_adaptive={"dropped": dropped}
    )
    methods = [("adaptive[T=0.9]", cfg), ("dropped", dropped)]
    methods += [(f"fixed[{format_policy(p)}]", ProfilerConfig.fixed(p)) for p in fixed]
    expected = []
    for method, method_cfg in methods:
        run = generate(mixed_model, prompt, method_cfg, gen_cfg)
        expected.append(
            ComparisonRow(
                method, run_pruned_ratio(run, PROMPT_LEN), run_mean_recovery(run)
            )
        )
    assert rows == expected
