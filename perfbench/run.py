#!/usr/bin/env python3
"""FastGen decode benchmark: compressed decode beside the reference engine.

Usage, from the repository root:

    python3 perfbench/run.py --workload synth-p256 --seed 1 --seconds 20 --trace 0

One operation is one generation session driven through the public API:
``encode_prompt`` then ``generate_step`` for every decode step, with
serial profiling. With ``--trace 0`` the run times untraced sessions and
prints the end-to-end metrics; with ``--trace 1`` it records spans around
every layer's public functions and prints the per-layer metrics. Both
check outputs first: the golden fixture and the full-policy engine
against ``reference_generate``. Timed runs scale every interval to a
nominal host speed (see hostspeed.py). The last stdout line is one JSON
object; the exit code is nonzero when any check or session failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Single-threaded BLAS: the engine's products are small, and BLAS threads
# on a shared 2-CPU machine add run-to-run spread without speeding it up.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

if not (SRC / "adaptive_kv" / "__init__.py").is_file():
    sys.exit(f"perfbench: no adaptive_kv package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from adaptive_kv import engine, metrics  # noqa: E402
from adaptive_kv.policies import PolicyAtom  # noqa: E402
from adaptive_kv.profiler import ProfilerConfig  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from tracer import ModelProxy, Tracer, installed  # noqa: E402
from workloads import WORKLOADS, Seeds, Workload, sampling_for, set_up  # noqa: E402

# A run sets up at least this many times (batches of cheap set-ups count
# once) and reports the median set-up time.
MIN_SETUPS = 3
SETUP_BATCH_S = 0.2
# Turn order of a timed run: the reference session costs about two
# adaptive ones.
TURNS = ("setup", "adaptive", "reference", "adaptive")
# Share of a traced session's wall time that the layer spans must cover.
MIN_TRACE_COVERAGE = 0.98

clock = time.perf_counter


class Session:
    """One adaptive session: its timed intervals and its outputs.

    ``times`` holds the seconds of ``encode_prompt`` then of each
    ``generate_step``.
    """

    def __init__(self, times: list[float], result):
        self.times = times
        self.result = result

    @property
    def e2e_s(self) -> float:
        return sum(self.times)

    @property
    def ttft_s(self) -> float:
        return self.times[0] + self.times[1]

    @property
    def decode_s(self) -> list[float]:
        """Decode steps after the first; the first only samples."""
        return self.times[2:]

    @property
    def decode_tok_s(self) -> float:
        return len(self.decode_s) / sum(self.decode_s)


class RawClock:
    """Wall-clock laps with the HostClock interface, for traced runs."""

    @contextmanager
    def running(self):
        self._mark = clock()
        yield self

    def lap(self) -> float:
        now = clock()
        lap, self._mark = now - self._mark, now
        return lap

    def tick(self):
        pass


def adaptive_session(model, prompt, workload: Workload, sampling, timer) -> Session:
    """encode_prompt, then generate_step per decode step, each timed."""
    profiler_cfg = ProfilerConfig()
    # generate_step takes the engine's sampler so nucleus RNG state carries
    # across steps, as in engine.generate.
    sampler = engine._Sampler(sampling)
    tokens, records = [], []
    token = None
    with timer.running():
        profile, cache = engine.encode_prompt(
            model, prompt, profiler_cfg, diagnostics=workload.diagnostics
        )
        times = [timer.lap()]
        for step in range(1, workload.steps + 1):
            token, cache = engine.generate_step(model, cache, token, sampler)
            times.append(timer.lap())
            cache.last_record.step = step
            tokens.append(token)
            records.append(cache.last_record)
    return Session(times, engine.GenerationResult(tokens, profile, records, cache))


def reference_session(model, prompt, workload: Workload, sampling, timer):
    """Seconds of one reference_generate call, and its tokens."""
    with timer.running():
        result = engine.reference_generate(
            model, prompt, engine.GenerationConfig(workload.steps, sampling)
        )
        return timer.lap(), result.tokens


def summarize(result, config, workload: Workload) -> dict[str, float]:
    """Cache size and recovery of one session, through the metrics module."""
    final = result.records[-1]
    seq_len = result.cache.seq_len
    memory = metrics.MemoryModel(
        config.num_layers, config.num_heads, config.head_dim, 1, seq_len
    )
    # fp16 K and V bytes of one head at one position.
    row_bytes = metrics.full_cache_bytes(memory) // (
        config.num_layers * config.num_heads * seq_len
    )
    scored = sum(
        count
        for key, count in final.head_retained.items()
        if PolicyAtom.FREQUENT in result.profile[key].policy.atoms
    )
    if workload.diagnostics:
        recovery = metrics.run_mean_recovery(result)
    else:
        # Without diagnostics the engine records no realized recovery; the
        # profiled recovery of each head's chosen policy stands in.
        recovery = statistics.fmean(d.recovery for _, d in result.profile.items())
    return {
        "kv_retained_frac": 1.0
        - metrics.run_pruned_ratio(result, workload.prompt_len),
        "kv_bytes_fp16": float(
            final.total_cache_tokens * row_bytes + scored * memory.bytes_per_scalar
        ),
        "recovery_mean": recovery,
    }


def timing_summary(samples: list[float]) -> dict[str, float]:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    for q in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - q) / 100.0 >= 10:
            out[f"p{q:g}"] = float(np.percentile(samples, q))
            break
    return out


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Outcome:
    """Attempted and failed operations of one run, with failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def record(self, cases: int, failures):
        self.attempted += cases
        self.failures.extend(failures)

    def guarded(self, case: str, fn, *args):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed session is a result
            self.failures.append((case, f"{type(exc).__name__}: {exc}"))
            return None

    def check(self, case: str, ok: bool, message: str, attempt: bool = False):
        """Record a failed check; ``attempt`` counts it as its own operation."""
        self.attempted += attempt
        if not ok:
            self.failures.append((case, message))

    @property
    def failed(self) -> int:
        return len({case for case, _ in self.failures})


def run_checks(outcome: Outcome, model, prompt, seeds: Seeds) -> int:
    """Golden fixture and reference checks; returns fixture bytes written."""
    written = 0
    try:
        failures, written = checks.fixture_check()
    except Exception as exc:  # noqa: BLE001 - a broken fixture is a failed check
        failures = [("fixture", f"{type(exc).__name__}: {exc}")]
    outcome.record(1 + len(checks.FIXTURE_RUNS), failures)
    try:
        failures = checks.reference_check(model, prompt, seeds.nucleus)
    except Exception as exc:  # noqa: BLE001
        failures = [("reference", f"{type(exc).__name__}: {exc}")]
    outcome.record(len(checks.REFERENCE_CASES), failures)
    return written


def check_tokens(outcome: Outcome, case: str, tokens, expected, vocab_size: int):
    """Tokens must be valid ids and repeat exactly across sessions of a run."""
    outcome.check(
        case,
        len(tokens) > 0 and all(0 <= t < vocab_size for t in tokens),
        f"tokens out of range: {tokens}",
    )
    if expected is not None:
        outcome.check(case, tokens == expected, f"tokens {tokens} != first {expected}")


def timed_setups(workload: Workload, seeds: Seeds, setup_times: list[float], host):
    """Set up once, or repeatedly for SETUP_BATCH_S when set-up is cheap."""
    batch_start = clock()
    with host.running():
        while True:
            setup = set_up(workload, seeds, tick=host.tick)
            setup_times.append(host.lap())
            if clock() - batch_start >= SETUP_BATCH_S:
                return setup


def timed_run(workload: Workload, seeds: Seeds, seconds: float) -> dict:
    """Untraced sessions; returns the end-to-end metrics.

    Set-ups, adaptive sessions and reference sessions take turns until the
    time is up, so each metric samples the whole run rather than one end
    of it: the host's speed drifts over seconds.
    """
    host = hostspeed.HostClock()
    with hostspeed.ticking(engine, "causal_attention", host):
        return _timed_run(host, workload, seeds, seconds)


def _timed_run(host, workload: Workload, seeds: Seeds, seconds: float) -> dict:
    outcome = Outcome()
    setup_times: list[float] = []
    setup = timed_setups(workload, seeds, setup_times, host)
    prompt = setup.prompt
    vocab_size = setup.model.config.vocab_size
    run_checks(outcome, setup.model, prompt, seeds)
    model = hostspeed.TickingModel(setup.model, host)

    sampling = sampling_for(workload, seeds)
    sessions: list[Session] = []
    first = None
    ref_times, ref_tokens = [], None
    tried = {"setup": 0, "adaptive": 0, "reference": 0}
    turn = 0
    deadline = clock() + seconds
    while True:
        missing = [
            kind
            for kind, minimum in (
                ("adaptive", 1), ("reference", 1), ("setup", MIN_SETUPS - 1)
            )
            if tried[kind] < minimum
        ]
        if clock() >= deadline:
            if not missing:
                break
            kind = missing[0]
        else:
            kind = TURNS[turn % len(TURNS)]
            turn += 1
        tried[kind] += 1
        case = f"{kind}-{tried[kind]}"
        if kind == "setup":
            outcome.guarded(case, timed_setups, workload, seeds, setup_times, host)
        elif kind == "adaptive":
            session = outcome.guarded(
                case, adaptive_session, model, prompt, workload, sampling, host
            )
            if session is not None:
                tokens = session.result.tokens
                check_tokens(outcome, case, tokens, first and first.tokens, vocab_size)
                # Keep one result, so peak memory does not grow with sessions.
                first = first or session.result
                session.result = None
                sessions.append(session)
        else:
            ref = outcome.guarded(
                case, reference_session, model, prompt, workload, sampling, host
            )
            if ref is not None:
                check_tokens(outcome, case, ref[1], ref_tokens, vocab_size)
                ref_tokens = ref_tokens or ref[1]
                ref_times.append(ref[0])

    result = {"attempted": outcome.attempted, "failed": outcome.failed}
    if not sessions or not ref_times:
        return {**result, "metrics": {}, "failures": outcome.failures}

    step_ms = [1e3 * t for s in sessions for t in s.decode_s]
    timings = {
        "setup_s": timing_summary(setup_times),
        "ttft_ms": timing_summary([1e3 * s.ttft_s for s in sessions]),
        "tpot_ms": timing_summary(step_ms),
        "decode_tok_s": timing_summary([s.decode_tok_s for s in sessions]),
        "e2e_s": timing_summary([s.e2e_s for s in sessions]),
        "ref_e2e_s": timing_summary(ref_times),
        "host_probe_ms": timing_summary([1e3 * t for t in host.samples]),
    }
    summary = summarize(first, model.config, workload)
    values = {
        "setup_s": (timings["setup_s"]["median"], "s"),
        "ttft_ms": (timings["ttft_ms"]["median"], "ms"),
        "tpot_ms_p50": (timings["tpot_ms"]["median"], "ms"),
        "tpot_ms_p90": (float(np.percentile(step_ms, 90)), "ms"),
        "decode_tok_s": (timings["decode_tok_s"]["median"], "1/s"),
        "e2e_s": (timings["e2e_s"]["median"], "s"),
        "ref_e2e_s": (timings["ref_e2e_s"]["median"], "s"),
        "token_match": (
            float(np.mean(np.asarray(first.tokens) == np.asarray(ref_tokens))),
            "fraction",
        ),
        "kv_retained_frac": (summary["kv_retained_frac"], "fraction"),
        "kv_bytes_fp16": (summary["kv_bytes_fp16"], "B"),
        "recovery_mean": (summary["recovery_mean"], "fraction"),
        "rss_peak_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "success_frac": (1.0 - outcome.failed / outcome.attempted, "fraction"),
    }
    return {
        **result,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "timings": timings,
        "outputs": {
            "prompt_sha256": hashlib.sha256(str(prompt).encode()).hexdigest(),
            "adaptive_tokens": first.tokens,
            "reference_tokens": ref_tokens,
        },
        "failures": outcome.failures,
    }


def traced_run(workload: Workload, seeds: Seeds, seconds: float) -> dict:
    """Traced sessions beside untraced ones; returns the per-layer metrics."""
    outcome = Outcome()
    tracer = Tracer()
    with installed(tracer):
        setup = tracer.run(
            "bench.setup", "setup", set_up, workload, seeds,
            lambda model: ModelProxy(model, tracer),
        )
        fixture_bytes = tracer.run(
            "bench.check", "check", run_checks, outcome, setup.model.wrapped,
            setup.prompt, seeds,
        )
    traced_model, plain_model, prompt = setup.model, setup.model.wrapped, setup.prompt
    config = plain_model.config
    heads = config.num_layers * config.num_heads

    sampling = sampling_for(workload, seeds)
    plain: list[Session] = []
    traced: list[Session] = []
    ref_tokens = None
    n_ref = 0
    kinds = ("plain", "traced", "reference")
    tried = dict.fromkeys(kinds, 0)
    deadline = clock() + seconds
    while min(tried.values()) == 0 or clock() < deadline:
        kind = kinds[sum(tried.values()) % len(kinds)]
        tried[kind] += 1
        case = f"{kind}-{tried[kind]}"
        if kind == "plain":
            session = outcome.guarded(
                case, adaptive_session, plain_model, prompt, workload, sampling,
                RawClock(),
            )
        elif kind == "traced":
            with installed(tracer):
                session = outcome.guarded(
                    case, tracer.run, "bench.session", f"adaptive-{tried[kind]}",
                    adaptive_session, traced_model, prompt, workload, sampling,
                    RawClock(),
                )
                if session is not None:
                    tracer.run(
                        "bench.summary", f"adaptive-{tried[kind]}",
                        summarize, session.result, config, workload,
                    )
        else:
            with installed(tracer):
                ref = outcome.guarded(
                    case, tracer.run, "bench.reference", f"reference-{tried[kind]}",
                    reference_session, traced_model, prompt, workload, sampling,
                    RawClock(),
                )
            if ref is not None:
                check_tokens(outcome, case, ref[1], ref_tokens, config.vocab_size)
                ref_tokens = ref_tokens or ref[1]
                n_ref += 1
            continue
        if session is not None:
            done = plain + traced
            first = done[0].result.tokens if done else None
            check_tokens(
                outcome, case, session.result.tokens, first, config.vocab_size
            )
            (plain if kind == "plain" else traced).append(session)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}.tsv")
    result = {"attempted": outcome.attempted, "failed": outcome.failed}
    if not plain or not traced or n_ref < 1:
        return {**result, "metrics": {}, "failures": outcome.failures}

    n = len(traced)
    session_agg = tracer.aggregate("adaptive-")
    ref_agg = tracer.aggregate("reference-")
    setup_agg = tracer.aggregate("setup")
    io_agg = {}
    for agg in (setup_agg, tracer.aggregate("check")):
        for name, entry in agg.items():
            if name.startswith("trace."):
                io_agg[name] = io_agg.get(name, 0.0) + entry["total_s"]

    def per_session(name: str, field: str = "total_s") -> float:
        return session_agg.get(name, {}).get(field, 0.0) / n

    rows = ("model.k_row", "model.q_row", "model.v_row")
    retained_calls = per_session("policies.retained_indices", "calls")
    recovery_calls = per_session("profiler.recovery_ratio", "calls")
    decode_steps = [
        dur
        for durs in tracer.durations("engine.generate_step", "adaptive-").values()
        for dur in durs[1:]
    ]
    root = session_agg["bench.session"]
    coverage = 1.0 - root["self_s"] / root["total_s"]
    outcome.check(
        "trace.coverage",
        coverage >= MIN_TRACE_COVERAGE,
        f"layer spans cover {coverage:.4f} of traced session time, "
        f"below {MIN_TRACE_COVERAGE}",
        attempt=True,
    )
    records = traced[0].result.records
    profile = traced[0].result.profile
    plain_e2e = statistics.median(s.e2e_s for s in plain)
    values = {
        "model.row_calls": (sum(per_session(r, "calls") for r in rows), "count"),
        "model.row_s": (sum(per_session(r) for r in rows), "s"),
        "model.head_logits_s": (per_session("model.head_logits"), "s"),
        "model.setup_s": (
            sum(e["total_s"] for k, e in setup_agg.items() if k.startswith("model.")),
            "s",
        ),
        "attention.causal_s": (per_session("attention.causal_attention"), "s"),
        "attention.causal_calls": (
            per_session("attention.causal_attention", "calls"), "count"
        ),
        "attention.softmax_vector_calls": (
            per_session("attention.softmax_vector", "calls"), "count"
        ),
        "profiler.profile_s": (per_session("profiler.profile_model"), "s"),
        "profiler.recovery_calls": (recovery_calls, "count"),
        "profiler.candidates_per_head": (recovery_calls / heads, "count"),
        "profiler.full_heads_frac": (
            statistics.fmean(d.policy.is_full for _, d in profile.items()),
            "fraction",
        ),
        "policies.retained_calls": (retained_calls, "count"),
        "policies.retained_s": (per_session("policies.retained_indices"), "s"),
        "policies.retained_us_per_call": (
            1e6 * per_session("policies.retained_indices") / retained_calls, "us"
        ),
        "policies.update_scores_s": (
            per_session("policies.update_cumulative_scores"), "s"
        ),
        "engine.encode_s": (per_session("engine.encode_prompt"), "s"),
        "engine.prompt_rows_self_s": (
            per_session("engine.prompt_head_data", "self_s"), "s"
        ),
        "engine.step_self_s": (per_session("engine.generate_step", "self_s"), "s"),
        "engine.step_us_per_head": (
            1e6 * statistics.fmean(decode_steps) / heads, "us"
        ),
        "engine.live_tokens_mean": (
            statistics.fmean(r.total_cache_tokens for r in records) / heads,
            "count",
        ),
        "engine.evicted_per_step": (
            statistics.fmean(
                prev.total_cache_tokens + heads - cur.total_cache_tokens
                for prev, cur in zip(records, records[1:])
            ),
            "count",
        ),
        "engine.ref_decode_s": (
            (
                ref_agg["engine.reference_generate"]["total_s"]
                - ref_agg["engine.prompt_head_data"]["total_s"]
            )
            / n_ref,
            "s",
        ),
        "trace.write_s": (io_agg.get("trace.write_trace", 0.0), "s"),
        "trace.read_s": (io_agg.get("trace.read_trace", 0.0), "s"),
        "trace.bytes": (float(setup.trace_bytes + fixture_bytes), "B"),
        "trace.model_init_s": (io_agg.get("trace.TraceModel", 0.0), "s"),
        "metrics.summary_s": (
            sum(e["total_s"] for k, e in session_agg.items() if k.startswith("metrics."))
            / n,
            "s",
        ),
        "bench.trace_overhead_frac": (
            (statistics.median(s.e2e_s for s in traced) - plain_e2e) / plain_e2e,
            "fraction",
        ),
        "bench.trace_coverage": (coverage, "fraction"),
    }
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "timings": {
            "plain_e2e_s": timing_summary([s.e2e_s for s in plain]),
            "traced_e2e_s": timing_summary([s.e2e_s for s in traced]),
        },
        "failures": outcome.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    seeds = Seeds.from_bench_seed(args.seed)

    result = (traced_run if args.trace else timed_run)(workload, seeds, args.seconds)
    failures = result.pop("failures")
    for case, message in failures:
        print(f"perfbench: FAILED {case}: {message}", file=sys.stderr)
    info = {
        "workload": vars(workload),
        "seeds": vars(seeds),
        "machine": machine_info(),
        "timings": result.pop("timings", {}),
        "outputs": result.pop("outputs", {}),
    }
    print(json.dumps(info))
    correct = result["failed"] == 0 and bool(result["metrics"])
    print(json.dumps({"correct": correct, **result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
