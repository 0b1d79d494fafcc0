"""Names the benchmark in ``perfbench/`` patches or reads must stay bound.

``perfbench/tracer.py`` wraps every ``(module, attribute)`` in its
``TARGETS``, ``perfbench/hostspeed.py`` ticks through
``engine.causal_attention``, and a traced run reads the
``engine.prompt_head_data`` span of ``reference_generate``. A refactor
that unbinds any of them breaks ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from adaptive_kv import engine
from adaptive_kv.profiler import ProfilerConfig

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
