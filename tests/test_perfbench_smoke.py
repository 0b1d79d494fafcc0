"""One short run of the benchmark script per mode, as a subprocess.

A traced run of ``synth-p256`` and an untraced run of ``diag-p512`` must
exit 0, pass every output check, fail no operation and print every metric
``BENCHMARK.json`` declares for their mode: its ``per_layer`` names with
``--trace 1`` and its ``end_to_end`` names with ``--trace 0``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace, declared",
    [("synth-p256", 1, "per_layer"), ("diag-p512", 0, "end_to_end")],
)
def test_benchmark_run_is_correct_and_prints_every_declared_metric(
    workload, trace, declared
):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--trace", str(trace), "--seconds", "1", "--seed", "7"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec[declared]]
    assert [name for name in names if name not in result["metrics"]] == []
