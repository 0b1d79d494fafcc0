"""Host-speed clock that puts timings from a drifting host on one scale.

On a shared machine the same code runs at two speeds, about 1.65x apart,
for tens of seconds at a time, so raw times from a 20-second run land in
either mode and their medians jump between them. A fixed probe that does
not touch the package, with the same mix of interpreter work and small
numpy calls as the engine, is timed at the ends of every measured
interval and, inside long calls, at ticks from hooks once PERIOD_S has
passed. Each segment between two probes is scaled by ``NOMINAL_S`` over
the mean of those probes, and the probes' own time is left out: the
reported times are what the interval would take on a host where the
probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

# Probe time in the host's fast mode on the 2-CPU machine the baseline was
# measured on, so scaled times read close to that mode's raw times.
NOMINAL_S = 0.00033
# Longest stretch inside one call that runs without a probe.
PERIOD_S = 0.2

clock = time.perf_counter


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._keys = rng.normal(size=(64, 32))
        self._query = rng.normal(size=32)
        self.samples: list[float] = []
        self._open = False
        self._lap = 0.0
        self._before = 0.0
        self._mark = 0.0

    def _work(self) -> float:
        acc = 0.0
        for _ in range(30):
            logits = self._keys @ self._query
            acc += float(np.exp(logits - logits.max()).sum())
            acc += sum([i * 0.5 for i in range(40)])
            acc += len({i: i for i in range(20)})
        return acc

    def probe(self) -> float:
        """Probe time: the faster of two runs, to drop interrupt jitter."""
        best = float("inf")
        for _ in range(2):
            start = clock()
            self._work()
            best = min(best, clock() - start)
        self.samples.append(best)
        return best

    def _segment(self):
        end = clock()
        after = self.probe()
        self._lap += (end - self._mark) * NOMINAL_S / ((self._before + after) / 2.0)
        self._before = after
        self._mark = clock()

    @contextmanager
    def running(self):
        """Keep the clock open over a run of ``lap`` intervals."""
        self._before = self.probe()
        self._lap = 0.0
        self._open = True
        self._mark = clock()
        try:
            yield self
        finally:
            self._open = False

    def lap(self) -> float:
        """Scaled seconds since the previous lap or the start."""
        self._segment()
        lap, self._lap = self._lap, 0.0
        return lap

    def tick(self):
        """Called from inside long calls: probe if PERIOD_S has passed."""
        if self._open and clock() - self._mark >= PERIOD_S:
            self._segment()


class TickingModel:
    """A model handle whose ``head_logits`` (once per decode step) ticks."""

    def __init__(self, model, host: HostClock):
        self.config = model.config
        self.vocab = model.vocab
        self.k_row, self.q_row, self.v_row = model.k_row, model.q_row, model.v_row
        self.prompt_token_ids = model.prompt_token_ids
        self._head_logits = model.head_logits
        self._tick = host.tick

    def head_logits(self, concat_outputs):
        self._tick()
        return self._head_logits(concat_outputs)


@contextmanager
def ticking(module, attr: str, host: HostClock):
    """Make ``module.attr`` tick the clock before each call; restore on exit."""
    original = getattr(module, attr)

    def ticked(*args, **kwargs):
        host.tick()
        return original(*args, **kwargs)

    setattr(module, attr, ticked)
    try:
        yield
    finally:
        setattr(module, attr, original)
