#!/usr/bin/env python3
"""Regenerate the golden fixture under perfbench/fixture/.

The fixture is a small AKVT trace (2 layers x 4 heads, head_dim 16,
64 positions) recorded from a fixed-seed synthetic model, plus the
tokens the engine decodes from it. The benchmark replays it on every
run, so regenerate it only when the engine's tokens are meant to change,
and say so in the change.

Run from the repository root: python3 perfbench/make_fixture.py
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adaptive_kv import trace  # noqa: E402
from adaptive_kv.model import ModelConfig  # noqa: E402

from checks import FIXTURE_GOLDEN, FIXTURE_TRACE, fixture_runs  # noqa: E402
from workloads import continuation_tokens, record_trace, synthetic_model  # noqa: E402

CONFIG = ModelConfig(num_layers=2, num_heads=4, head_dim=16, vocab_size=32, seed=2310)
PROMPT_LEN = 48
STEPS = 17
CONTINUATION_SEED = 1801
NUCLEUS_SEED = 7


def main() -> int:
    model = synthetic_model(CONFIG)
    prompt = model.prompt_token_ids(PROMPT_LEN)
    continuation = continuation_tokens(CONTINUATION_SEED, STEPS - 1, CONFIG.vocab_size)
    buf = io.BytesIO()
    trace.write_trace(record_trace(model, prompt, continuation), buf)
    FIXTURE_TRACE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_TRACE.write_bytes(buf.getvalue())

    replay = trace.TraceModel(trace.read_trace(FIXTURE_TRACE))
    golden = {
        "prompt_len": PROMPT_LEN,
        "steps": STEPS,
        "nucleus_seed": NUCLEUS_SEED,
        **fixture_runs(
            replay, replay.prompt_token_ids(PROMPT_LEN), STEPS, NUCLEUS_SEED
        ),
    }
    FIXTURE_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE_TRACE} ({len(buf.getvalue())} bytes) and {FIXTURE_GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
