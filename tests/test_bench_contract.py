"""Names the benchmark in ``perfbench/`` patches or reads must stay bound.

``perfbench/tracer.py`` wraps every ``(module, attribute)`` in its
``TARGETS``, ``perfbench/hostspeed.py`` ticks through
``engine.causal_attention``, and a traced run reads the
``engine.prompt_head_data`` span of ``reference_generate``. A refactor
that unbinds any of them breaks ``perfbench/run.py --trace 1``.

Every benchmark session also reaches the model through a wrapper that
exposes only the per-row model API (``hostspeed.TickingModel`` untraced,
``tracer.ModelProxy`` traced), so an engine call to any other model
method would fail every session.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from adaptive_kv import engine
from adaptive_kv.profiler import ProfilerConfig
from adaptive_kv.trace import TraceModel, record_trace

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.tracer"), importlib.import_module(
        "perfbench.hostspeed"
    )


def test_every_tracer_target_resolves(perfbench):
    tracer, _ = perfbench
    for module, attr, _ in tracer.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


class CountingHost:
    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1


def test_host_clock_ticks_once_per_head(perfbench, small_model):
    _, hostspeed = perfbench
    host = CountingHost()
    prompt = small_model.prompt_token_ids(16)
    with hostspeed.ticking(engine, "causal_attention", host):
        engine.encode_prompt(small_model, prompt, ProfilerConfig())
    assert host.ticks == len(small_model.config.head_grid())


def test_reference_generate_calls_prompt_head_data(monkeypatch, small_model):
    calls = []
    original = engine.prompt_head_data

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "prompt_head_data", counted)
    prompt = small_model.prompt_token_ids(16)
    engine.reference_generate(small_model, prompt, engine.GenerationConfig(2))
    assert len(calls) == 1


def wrapped_models(perfbench, model):
    tracer, hostspeed = perfbench
    return {
        "ticking": hostspeed.TickingModel(model, CountingHost()),
        "traced": tracer.ModelProxy(model, tracer.Tracer()),
    }


def run_session(model, prompt, diagnostics: bool):
    """What a benchmark session calls: encode, a few steps, the reference."""
    profile, cache = engine.encode_prompt(
        model, prompt, ProfilerConfig(), diagnostics=diagnostics
    )
    sampler = engine._Sampler(engine.Nucleus(seed=5))
    tokens, token = [], None
    for _ in range(3):
        token, cache = engine.generate_step(model, cache, token, sampler)
        tokens.append(token)
    reference = engine.reference_generate(
        model, prompt, engine.GenerationConfig(3, engine.Nucleus(seed=5))
    )
    return profile.to_csv(), tokens, reference.tokens


@pytest.mark.parametrize("kind", ["synthetic", "replay"])
@pytest.mark.parametrize("wrapper", ["ticking", "traced"])
def test_sessions_run_through_benchmark_model_wrappers(
    perfbench, small_model, kind, wrapper
):
    prompt = small_model.prompt_token_ids(16)
    model = small_model
    if kind == "replay":
        model = TraceModel(record_trace(small_model, prompt + [5, 6, 7], len(prompt)))
    expected = run_session(model, prompt, diagnostics=True)
    wrapped = wrapped_models(perfbench, model)[wrapper]
    assert wrapped.prompt_token_ids(16) == prompt
    assert run_session(wrapped, prompt, diagnostics=True) == expected
