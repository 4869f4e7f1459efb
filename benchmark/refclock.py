"""Timing in reference seconds.

CPU speed on a shared machine changes by up to ~2x, in phases that range
from a fraction of a second to tens of seconds, and CPU time tracks wall
time through them, so raw seconds of the same code differ by more than any
regression worth catching.  Every timing here is therefore scaled by the
speed of a short, fixed reference computation that belongs to the
benchmark, not to the program, measured while the timed work runs: an
interval timer interrupts the work every ``SAMPLE_INTERVAL_S`` and the
signal handler runs the reference computation once.  The time spent in the
handler is taken out of the work's time, and each slice of work between
two samples is scaled by ``REFERENCE_NOMINAL_S`` over the mean of the two
samples.  One reference second is one second of a machine that runs the
reference computation in ``REFERENCE_NOMINAL_S``.

The reference computation has two halves, because the slow phases do not
slow all code alike: some slow pure-Python, pointer-chasing code most, some
slow vectorised linear algebra most.  One half is what mixbgk spends time on
at N = 3 (a 3x3 solve, an einsum, a pure-Python float loop like the Jacobi
sweeps and 17-digit float formatting like the CSV writer); the other is its
dense linear algebra at N = 30 (a 30x30 solve with three right-hand sides,
an einsum and a matrix product).
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

SMALL_ITERATIONS = 16
DENSE_ITERATIONS = 6
# Median reference sample on the machine the benchmark was written on
# (2 cores, Python 3.11.7, numpy 2.4.6, one OpenBLAS thread).
REFERENCE_NOMINAL_S = 7.0e-4
SAMPLE_INTERVAL_S = 0.006
# Samples taken when the clock starts, for work done before the first tick.
BURST_SAMPLES = 20

_SMALL = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
_SMALL_RHS = np.array([1.0, 2.0, 3.0])
_DENSE = 4.0 * np.eye(30) + 1e-3 * np.add.outer(np.arange(30.0), np.arange(30.0))
_DENSE_RHS = np.ones((30, 3))


def reference_work() -> float:
    """The fixed reference computation; returns a value so no step is skipped."""
    acc = 0.0
    parts = []
    for i in range(SMALL_ITERATIONS):
        x = np.linalg.solve(_SMALL + (i * 1e-3) * np.eye(3), _SMALL_RHS)
        acc += float(np.einsum("ij,i,j->", _SMALL, x, x))
        s = 0.0
        for k in range(24):
            s += math.sqrt(k + acc % 7.0) * 0.5
        parts.append(f"{s:.17e}")
    for i in range(DENSE_ITERATIONS):
        x = np.linalg.solve(_DENSE + (i * 1e-3) * np.eye(30), _DENSE_RHS)
        acc += float(np.einsum("ik,ik->", x, _DENSE_RHS)) + float((_DENSE @ x).sum())
    return acc + len(",".join(parts))


def _sample() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Clock:
    """Times work in raw and reference seconds.

    ``samples`` keeps every reference sample taken, so the normalisation
    can be audited from the run's report.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = self._burst()
        self._slice_start = 0.0
        self._raw = 0.0
        self._ref = 0.0
        self._in_handler = False

    def _burst(self) -> float:
        burst = [_sample() for _ in range(BURST_SAMPLES)]
        self.samples += burst
        return len(burst) / sum(1.0 / s for s in burst)

    def _on_timer(self, signum, frame):
        if self._in_handler:
            return
        self._in_handler = True
        now = time.perf_counter()
        sample = _sample()
        self._close_slice(now, sample)
        self.samples.append(sample)
        self._slice_start = time.perf_counter()
        self._in_handler = False

    def _close_slice(self, now: float, sample: float) -> None:
        work = now - self._slice_start
        self._raw += work
        self._ref += work * REFERENCE_NOMINAL_S / (0.5 * (self._last + sample))
        self._last = sample

    def run(self, calls):
        """Run each callable in order with the sampler on.

        Returns (raw_s, reference_s, results), handler time excluded.
        """
        self._raw = self._ref = 0.0
        results = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        try:
            self._slice_start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            for call in calls:
                results.append(call())
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._close_slice(time.perf_counter(), self._last)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return self._raw, self._ref, results
