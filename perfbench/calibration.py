"""Gauge of the machine's momentary speed.

On a shared machine the speed of one core changes by up to 2x within
seconds as other tenants come and go.  `kernel()` is a fixed piece of
pure-Python rational arithmetic; timing it before, during (every
`SAMPLE_INTERVAL_S`, from SIGALRM) and after a measured interval gives
the speed the interval ran at.  `run.py` scales each time by
REFERENCE_KERNEL_S / (median kernel time over the interval): a time reads as
if the kernel had taken REFERENCE_KERNEL_S throughout.  That is the
kernel's time on an uncontended core of the 2-CPU Xeon VM the benchmark was
built on (Python 3.11), so there scaled times are close to wall times on
an idle machine.  The kernel does not use qverify, so no change to qverify
moves it, and it runs with the garbage collector off, so the size of the
program's heap does not move it either.
"""

from __future__ import annotations

import functools
import gc
import signal
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.0008
SAMPLE_INTERVAL_S = 0.05

# 12-digit rationals in a table larger than the CPU's first-level caches,
# so the kernel's big-integer and memory behaviour resembles qverify's
# coefficient arithmetic and it slows under contention as qverify does
_TABLE = 3000


@functools.cache
def _table() -> tuple:
    return tuple(Fraction((i * 7919 + 13) % 10**12 - 5 * 10**11,
                          (i * 104729 + 7) % 10**12 + 1) for i in range(_TABLE))


def kernel() -> float:
    """Seconds taken by a fixed sum of 215 products of table entries.

    The table is built on the first call, outside the timed part (and
    inside a `Gauge.sample()`, so set-up time does not include it).
    """
    xs = _table()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc: dict = {}
        for i in range(0, _TABLE, 14):
            k = (i * 17) % 401
            acc[k] = acc.get(k, 0) + xs[i] * xs[(i * 31) % _TABLE]
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Kernel samples taken on `sample()` and, once started, every
    SAMPLE_INTERVAL_S seconds.

    `paused` is the total time spent sampling; callers subtract it from
    the intervals they measure.
    """

    def __init__(self):
        self.samples: list = []
        self.paused = 0.0

    def sample(self):
        t = time.perf_counter()
        self.samples.append(kernel())
        self.paused += time.perf_counter() - t

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
