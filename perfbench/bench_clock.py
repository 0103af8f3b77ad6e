"""Stage times scaled to a reference machine speed.

On a shared host the speed of the same single-threaded code drifts: one
`mbdp` solve repeated in one process took 0.51-0.97 s within a minute,
with its CPU time following its wall time, so the process was not
waiting but running slower.  To compare runs taken at different times,
every timed program call is scaled by how fast the machine ran a fixed
reference kernel while the call ran:

    scaled = (wall time of the call) * REFERENCE_S[kernel] / (median kernel time)

The kernels are the benchmark's own code and call nothing in `mbdp`, so
a faster program still reads faster.  Three kernels match the kinds of
work in the workloads:

- ``interp``: a Python loop of small matrix-vector products and dict
  stores, like the planners' selection scan, the bound enumeration and
  every call on a narrow model;
- ``gather``: gathering rows of a 3 MB table into fresh 3 MB arrays and
  reducing them, like `simulate` on box pushing (100 states);
- ``stream``: passes over fresh 16 MB arrays, like the streamed final
  level of `exact_solve` on box pushing, whose 50 MB chunks are bound by
  memory bandwidth.

While a call runs, an interval timer samples the kernel every
``INTERVAL_S``; a call also gets a sample just before and just after it
when the last one is older than that.  The time spent in samples is
taken out of the call's wall time.  ``REFERENCE_S`` holds the kernels'
median times on the machine the reference figures in README.md come
from, so scaled seconds there read close to wall seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
# median kernel times (s) on a 2-vCPU shared VM, Python 3.11, numpy 2.4 (OpenBLAS)
REFERENCE_S = {"interp": 0.0045, "gather": 0.007, "stream": 0.010}

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.random((64, 64)) / 32.0
_VECTOR = _RNG.random(64)
_TABLE = _RNG.random((4096, 100))  # 3 MB
_ROWS = (_RNG.integers(0, 4096, 4096), _RNG.integers(0, 4096, 4096))


def interp_kernel() -> float:
    table = {}
    x = _VECTOR
    for i in range(800):
        x = _MATRIX @ x
        x = x / x.sum()
        table[(i % 53, i % 7)] = x
    return float(x[0]) + len(table)


def gather_kernel() -> float:
    total = 0.0
    for _ in range(4):
        gathered = _TABLE[_ROWS[0]]
        gathered += _TABLE[_ROWS[1]]
        total += float(gathered.max(axis=0).sum())
    return total


def stream_kernel() -> float:
    # allocated per sample: 32 MB held only while the sample runs
    fresh = np.full(1 << 21, 0.5)
    scaled = fresh * 1.5
    scaled += fresh
    return float(scaled.sum())


KERNELS = {"interp": interp_kernel, "gather": gather_kernel, "stream": stream_kernel}


def kernel_median(kernel: str, repeats: int) -> float:
    """Median time of ``repeats`` kernel runs, outside any timed call."""
    fn = KERNELS[kernel]
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Clock:
    """Times program calls in wall seconds and in reference-speed seconds."""

    def __init__(self):
        self.samples = {name: [] for name in KERNELS}  # (start, seconds) per kernel
        self._kernel = "interp"
        self._spent = 0.0

    def _sample(self, *_signal_args) -> None:
        fn = KERNELS[self._kernel]
        started = time.perf_counter()
        fn()
        seconds = time.perf_counter() - started
        self.samples[self._kernel].append((started, seconds))
        self._spent += seconds

    def _sample_if_stale(self) -> None:
        samples = self.samples[self._kernel]
        if not samples or time.perf_counter() - samples[-1][0] > INTERVAL_S:
            self._sample()

    def time(self, call, kernel: str):
        """Runs ``call()``; returns (result, wall seconds, scaled seconds).

        If the call raises, the exception propagates after the timer stops.
        """
        self._kernel = kernel
        self._sample_if_stale()
        spent = self._spent
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            result = call()
        finally:
            ended = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall = ended - started - (self._spent - spent)
        self._sample_if_stale()
        return result, wall, wall * self.scale(kernel, started, ended)

    def medians(self) -> dict[str, float]:
        """Median time of every kernel over all its samples so far."""
        return {
            name: statistics.median(seconds for _, seconds in samples)
            for name, samples in self.samples.items()
            if samples
        }

    def scale(self, kernel: str, started: float, ended: float) -> float:
        """Reference kernel time over its median time around [started, ended]."""
        near = [
            seconds
            for at, seconds in self.samples[kernel]
            if started - 2 * INTERVAL_S <= at <= ended + INTERVAL_S
        ]
        return REFERENCE_S[kernel] / statistics.median(near)
