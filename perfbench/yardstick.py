"""Host-speed yardstick: times a fixed slice of work alongside the passes.

The benchmark runs on a few cores of a shared host whose speed swings up to
2x within seconds (process CPU time tracks wall time, so the slowdown is
contention for the cores' shared resources, not time taken away).  Raw pass
times of the same code then spread by 20-40% between runs.  The yardstick
runs a fixed slice of work that does not touch nnapprox (a pure-Python loop,
small numpy calls, a small matmul and a 2 MiB memory sweep, 0.5-1 ms) every
TICK_S seconds during a pass, from a SIGALRM handler, and in short bursts
around it.  A pass time divided by the trimmed mean of the slices timed
during it, times REFERENCE_SLICE_S, is the pass time at the host speed at
which one slice takes REFERENCE_SLICE_S: the benchmark's time metrics are in
these seconds, and the raw wall times are in the report.  On that host this
cut the spread
of run medians of the Python-bound workloads from 12-31% to 3-6%, and of the
memory-bound ones by about a third.

The handler runs between bytecodes of the main thread, never inside a C
call, and does not touch the program's state; its own time is subtracted
from the pass.  A program change that slows the slice as well (say, threads
left spinning after a call) moves the normalised time less than the wall
time; the report keeps both.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_S = 0.05
BURST = 8
# Times are reported at the host speed at which one slice takes this long; a
# slice takes 0.7-1.2 ms on the 2-vCPU shared x86 host the benchmark was tuned on.
REFERENCE_SLICE_S = 1.0e-3
TRIM = 0.1  # share of slices dropped at each end before averaging

_rng = np.random.default_rng(12345)
_SMALL_W = _rng.standard_normal((8, 8))
_SMALL_X = _rng.standard_normal((16, 8))
_BIG = _rng.standard_normal(262144)  # 2 MiB of float64
_BUF = np.empty_like(_BIG)
_MAT = _rng.standard_normal((96, 96))


def work_slice():
    d = {}
    s = 0
    for i in range(1500):
        d[i & 255] = s
        s = (s + len(str(i))) % 1000003
    x = _SMALL_X
    for _ in range(40):
        x = np.abs(x @ _SMALL_W) * 0.125
    _MAT @ _MAT
    np.multiply(_BIG, 1.0001, out=_BUF)
    return s


def trimmed_mean(values):
    v = sorted(values)
    k = int(len(v) * TRIM)
    return statistics.fmean(v[k:len(v) - k])


class Yardstick:
    """Collects slice times; `timed(fn)` runs fn and returns (result, raw_s, normalised_s)."""

    def __init__(self):
        self.slices = []
        self.spent = 0.0
        self.all_slices = []
        for _ in range(3 * BURST):  # first calls of the numpy paths are slower
            work_slice()

    def _slice(self):
        t0 = time.perf_counter()
        work_slice()
        dt = time.perf_counter() - t0
        self.slices.append(dt)
        self.spent += dt

    def _tick(self, signum, frame):
        self._slice()

    def burst(self):
        for _ in range(BURST):
            self._slice()

    def timed(self, fn):
        """Run fn with slices ticking; return its result, raw wall time and normalised time."""
        self.slices, self.spent = [], 0.0
        self.burst()
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - self.spent
        self.burst()
        self.all_slices.extend(self.slices)
        return result, raw, self.normalise(raw, self.slices)

    @staticmethod
    def normalise(raw, slices):
        return raw * REFERENCE_SLICE_S / trimmed_mean(slices)

    def summary(self):
        s = self.all_slices
        return {"slices": len(s), "slice_median_s": statistics.median(s) if s else None,
                "reference_slice_s": REFERENCE_SLICE_S, "tick_s": TICK_S}
