"""Output checks: the committed golden fixture and the reference engine.

Each check returns a list of (case, message) failures; an empty list is a
pass.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from adaptive_kv import engine, trace
from adaptive_kv.policies import full_policy
from adaptive_kv.profiler import ProfilerConfig

FIXTURE_DIR = Path(__file__).resolve().parent / "fixture"
FIXTURE_TRACE = FIXTURE_DIR / "small.akvt"
FIXTURE_GOLDEN = FIXTURE_DIR / "golden.json"

# Decoding steps of the full-policy vs reference check on a workload prompt.
REFERENCE_HORIZON = 8

FIXTURE_RUNS = ("adaptive_greedy", "full_greedy", "adaptive_nucleus")
REFERENCE_CASES = ("greedy", "nucleus")


def fixture_runs(model, prompt: list[int], steps: int, nucleus_seed: int):
    """Tokens of the three pinned generations on the fixture trace."""
    greedy = engine.GenerationConfig(steps)
    nucleus = engine.GenerationConfig(steps, engine.Nucleus(seed=nucleus_seed))
    return {
        "adaptive_greedy": engine.generate(
            model, prompt, ProfilerConfig(), greedy
        ).tokens,
        "full_greedy": engine.generate_fixed_baseline(
            model, prompt, full_policy(), greedy
        ).tokens,
        "adaptive_nucleus": engine.generate(
            model, prompt, ProfilerConfig(), nucleus
        ).tokens,
    }


def fixture_check() -> tuple[list[tuple[str, str]], int]:
    """Replay the fixture trace against its golden tokens.

    Also checks that writing the parsed trace reproduces the file byte
    for byte. Returns the failures and the number of trace bytes written.
    """
    data = FIXTURE_TRACE.read_bytes()
    golden = json.loads(FIXTURE_GOLDEN.read_text(encoding="utf-8"))
    parsed = trace.read_trace(io.BytesIO(data))
    buf = io.BytesIO()
    trace.write_trace(parsed, buf)
    failures = []
    if buf.getvalue() != data:
        failures.append(("fixture.round_trip", "rewritten trace differs from file"))
    model = trace.TraceModel(parsed)
    prompt = model.prompt_token_ids(golden["prompt_len"])
    runs = fixture_runs(model, prompt, golden["steps"], golden["nucleus_seed"])
    for name in FIXTURE_RUNS:
        if runs[name] != golden[name]:
            failures.append(
                (f"fixture.{name}", f"tokens {runs[name]} != golden {golden[name]}")
            )
    return failures, len(buf.getvalue())


def reference_check(model, prompt: list[int], nucleus_seed: int):
    """The full-cache policy must decode exactly like the reference engine."""
    failures = []
    samplings = (engine.GreedyArgmax(), engine.Nucleus(seed=nucleus_seed))
    for case, sampling in zip(REFERENCE_CASES, samplings):
        cfg = engine.GenerationConfig(REFERENCE_HORIZON, sampling)
        full = engine.generate_fixed_baseline(
            model, prompt, full_policy(), cfg, diagnostics=False
        ).tokens
        ref = engine.reference_generate(model, prompt, cfg).tokens
        if full != ref:
            failures.append(
                (f"reference.{case}", f"full-policy tokens {full} != reference {ref}")
            )
    return failures
