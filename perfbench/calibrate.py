"""Host-speed calibration: a fixed kernel timed between the ops of a run.

The benchmark's host shares its cores with other tenants, and its speed
drifts by up to 1.7x over seconds to minutes.  Every op's wall time moves
with it, whatever the program does.  The kernel below does the same kinds
of work as the library's hot paths (interpreted index arithmetic and
object-dtype integer products) but never calls the library, so a change
to hyperstp cannot move it.  Timed about every ``EVERY_S`` seconds of the
run, it says how fast the host ran near each op; an op's latency scaled
by ``REF_S / kernel time near it`` is its latency at the reference speed.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

EVERY_S = 0.05      # at most this much wall time between two kernel samples
WINDOW = 21         # kernel samples nearest in time to an op set its speed
REF_S = 1.75e-3     # the kernel's median time on the reference host (see README.md)

_M = np.arange(256, dtype=np.int64).reshape(16, 16).astype(object) - 128


def kernel() -> int:
    """About 2 ms of fixed work: divmod index arithmetic, then object dots."""
    acc = 0
    for i in range(3000):
        rest, a = divmod(i, 7)
        rest, b = divmod(rest, 5)
        acc += a * b + rest
    for _ in range(3):
        acc += int(_M.dot(_M)[0, 0])
    return acc


class Calibration:
    """Kernel samples ``(start, seconds)`` taken between ops, in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        gc.disable()             # a collection of the library's garbage is not host speed
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.starts.append(t0)
        self.times.append(t1 - t0)

    def due(self) -> bool:
        return not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S

    def scale(self, t: float) -> float:
        """``REF_S`` over the median of the ``WINDOW`` samples nearest ``t``."""
        j = bisect.bisect(self.starts, t)
        lo = max(0, min(j - WINDOW // 2, len(self.times) - WINDOW))
        return REF_S / statistics.median(self.times[lo:lo + WINDOW])

    def median_s(self) -> float:
        return statistics.median(self.times)


def scale_now(seconds: float, samples: int = 9) -> float:
    """``seconds`` scaled by the median of ``samples`` kernel runs made now."""
    cal = Calibration()
    for _ in range(samples):
        cal.sample()
    return seconds * REF_S / cal.median_s()
