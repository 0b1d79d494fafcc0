"""Span recording around the package's public functions, from outside it.

Spans are kept in memory as (name, start, end, parent, session) and
written out once at the end of a run. Wrapping patches module
attributes, so both the benchmark's own calls and the package's calls
between modules are recorded; ``installed`` restores the originals.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from adaptive_kv import engine, metrics, profiler, trace

# (module, attribute, span name). Span names use the module that defines
# the function, which is the layer it belongs to.
TARGETS = (
    (engine, "encode_prompt", "engine.encode_prompt"),
    (engine, "generate_step", "engine.generate_step"),
    (engine, "reference_generate", "engine.reference_generate"),
    (engine, "prompt_head_data", "engine.prompt_head_data"),
    (engine, "causal_attention", "attention.causal_attention"),
    (engine, "softmax_vector", "attention.softmax_vector"),
    (engine, "profile_model", "profiler.profile_model"),
    (engine, "retained_indices", "policies.retained_indices"),
    (engine, "update_cumulative_scores", "policies.update_cumulative_scores"),
    (profiler, "retained_indices", "policies.retained_indices"),
    (profiler, "recovery_ratio", "profiler.recovery_ratio"),
    (trace, "write_trace", "trace.write_trace"),
    (trace, "read_trace", "trace.read_trace"),
    (trace, "TraceModel", "trace.TraceModel"),
    (metrics, "run_pruned_ratio", "metrics.run_pruned_ratio"),
    (metrics, "run_mean_recovery", "metrics.run_mean_recovery"),
    (metrics, "full_cache_bytes", "metrics.full_cache_bytes"),
)

MODEL_METHODS = ("k_row", "q_row", "v_row", "head_logits", "prompt_token_ids")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sessions: list[str] = []
        self._stack: list[int] = []
        self.session = ""

    def wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, sessions, stack = self.parents, self.sessions, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            sessions.append(self.session)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def run(self, name: str, session: str, fn, *args, **kwargs):
        """Call ``fn`` under a root span named ``name`` for ``session``."""
        self.session = session
        try:
            return self.wrap(name, fn)(*args, **kwargs)
        finally:
            self.session = ""

    def aggregate(self, session_prefix: str) -> dict[str, dict[str, float]]:
        """Per-name call count, total and self seconds over matching sessions."""
        child_time = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            if not self.sessions[idx].startswith(session_prefix):
                continue
            dur = self.ends[idx] - self.starts[idx]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child_time[idx]
        return out

    def durations(self, name: str, session_prefix: str) -> dict[str, list[float]]:
        """Durations of every ``name`` span, in call order, per matching session."""
        out: dict[str, list[float]] = {}
        for idx, span_name in enumerate(self.names):
            session = self.sessions[idx]
            if span_name == name and session.startswith(session_prefix):
                out.setdefault(session, []).append(self.ends[idx] - self.starts[idx])
        return out

    def write(self, path):
        lines = ["session\tname\tstart\tend\tparent"]
        lines.extend(
            f"{s}\t{n}\t{a!r}\t{b!r}\t{p}"
            for s, n, a, b, p in zip(
                self.sessions, self.names, self.starts, self.ends, self.parents
            )
        )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class ModelProxy:
    """A model handle whose row and head methods are recorded as spans."""

    def __init__(self, model, tracer: Tracer):
        self.wrapped = model
        self.config = model.config
        self.vocab = model.vocab
        for method in MODEL_METHODS:
            setattr(self, method, tracer.wrap(f"model.{method}", getattr(model, method)))


@contextmanager
def installed(tracer: Tracer):
    """Patch every target with a recording wrapper; restore on exit."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
    try:
        for module, attr, name in TARGETS:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
