"""Start each timed op on a vCPU that is in its fast state.

On the reference host every vCPU alternates between a fast and a slow
state, about 1.5x apart for interpreter-heavy NumPy code; a state lasts
from about a second to tens of seconds, and the vCPUs switch
independently. Before each timed op or set-up the driver times a fixed
0.1 ms probe on every allowed vCPU and pins itself to the fastest. If
even that one is more than ``SLOW`` times slower than the run's fast
level — the lowest fifth of the probes so far, robust to one lucky
probe — it sleeps and probes again, for at most ``patience`` seconds.
More ops then run in a fast state, so the low-decile latencies stop
tracking the neighbours' load. The probing is untimed.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: A probe this many times slower than the fast level means "slow".
SLOW = 1.15
#: Pause between probes while waiting (seconds).
PAUSE = 0.05


class FastCpu:
    """Waits for, and pins the process to, a vCPU in its fast state;
    :meth:`restore` puts the original affinity back.

    Args:
        patience: Longest wait for a fast state, in seconds, before an
            op runs anyway.
    """

    def __init__(self, patience: float) -> None:
        self.patience = patience
        try:
            self._allowed = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self._allowed = []
        rng = np.random.default_rng(0)
        self._values = rng.random(2048)
        self._order = rng.permutation(2048)
        self._out = np.empty(2048)
        self._probes: list[float] = []

    def _probe(self) -> float:
        out = self._out
        start = time.perf_counter()
        for _ in range(12):
            np.take(self._values, self._order, out=out)
            np.multiply(out, 1.0001, out=out)
            np.exp(out, out=out)
            float(out.sum())
        return time.perf_counter() - start

    def _best(self) -> tuple[float, int | None]:
        if len(self._allowed) < 2:
            return min(self._probe(), self._probe()), None
        timings = []
        for cpu in self._allowed:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(self._probe(), self._probe()), cpu))
        return min(timings)

    def pin(self) -> None:
        """Pin to the fastest vCPU, waiting up to ``patience`` seconds
        for one in its fast state."""
        start = time.perf_counter()
        while True:
            timing, cpu = self._best()
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            self._probes.append(timing)
            fast = float(np.percentile(self._probes[-500:], 20))
            if timing <= SLOW * fast or time.perf_counter() - start >= self.patience:
                return
            time.sleep(PAUSE)

    def restore(self) -> None:
        if self._allowed:
            os.sched_setaffinity(0, set(self._allowed))
