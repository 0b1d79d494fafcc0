"""Names the benchmark in ``perfbench/`` patches or reads must stay bound.

``perfbench/tracer.py`` wraps every ``(module, attribute)`` in its
``TARGETS``, ``perfbench/hostspeed.py`` ticks through
``engine.causal_attention``, and a traced run reads the
``engine.prompt_head_data`` span of ``reference_generate``. A refactor
that unbinds any of them breaks ``perfbench/run.py --trace 1``.

Every benchmark session also reaches the model through a wrapper that
exposes only the row model API (``hostspeed.TickingModel`` untraced,
``tracer.ModelProxy`` traced), so an engine call to any other model
method would fail every session. Through either wrapper, an encode reads
each role of a layer in one block and so does each decode step that
appends a row: a fallback to reads row by row fails here.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from collections import Counter

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


class CountingModel:
    """A model handle that counts calls of each row and head method."""

    def __init__(self, model):
        self.config, self.vocab, self.calls = model.config, model.vocab, Counter()
        for method in ("k_row", "q_row", "v_row", "head_logits", "prompt_token_ids"):
            setattr(self, method, self._counted(method, getattr(model, method)))

    def _counted(self, method, fn):
        def counted(*args, **kwargs):
            self.calls[method] += 1
            return fn(*args, **kwargs)

        return counted

    def take(self) -> Counter:
        calls, self.calls = self.calls, Counter()
        return calls


@pytest.mark.parametrize("kind", ["synthetic", "replay"])
@pytest.mark.parametrize("wrapper", ["ticking", "traced"])
def test_sessions_read_model_rows_once_per_role_and_layer(
    perfbench, small_model, kind, wrapper
):
    prompt = small_model.prompt_token_ids(16)
    model = small_model
    if kind == "replay":
        model = TraceModel(record_trace(small_model, prompt + [5, 6, 7], len(prompt)))
    counting = CountingModel(model)
    wrapped = wrapped_models(perfbench, counting)[wrapper]
    per_role = Counter(
        {role: model.config.num_layers for role in ("k_row", "q_row", "v_row")}
    )
    for encode in (
        lambda: engine.encode_prompt(wrapped, prompt, ProfilerConfig())[1],
        lambda: engine.reference_generate(
            wrapped, prompt, engine.GenerationConfig(0)
        ).cache,
    ):
        cache = encode()
        assert counting.take() == per_role
        token = None
        for step in range(4):
            token, cache = engine.generate_step(wrapped, cache, token)
            rows = per_role if step else Counter()
            assert counting.take() == rows + Counter(head_logits=1)
