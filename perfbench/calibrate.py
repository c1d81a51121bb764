"""Speed of the host during a run, from a fixed kernel timed between ops.

On a shared host the same code runs up to 1.8 times slower for minutes
at a time while other tenants are busy, and a 50 s run can fall wholly
inside such a stretch.  So each run also times a kernel of the
benchmark's own, shaped like the workload's ops, every INTERVAL_S of its
timed phase.  The fastest kernel time against REFERENCE_S is the run's
slowdown, and the run's time metrics are divided by it: they read as at
the reference speed.  The kernel shares no code with srdist, so a change
to the program moves the metrics and not the slowdown.
"""
from __future__ import annotations

import math
import time

import numpy as np

INTERVAL_S = 0.25


def python_kernel() -> float:
    """Interpreter-bound scalar float work, as in the distance solver's bisection."""
    s, x = 0.0, 0.1
    for i in range(3000):
        x = math.sin(x + 0.5) * math.cos(x) + math.sqrt(abs(x) + 1.0)
        s += math.atan2(x, 1.0 + i)
    return s


_PHI = np.linspace(0.0, 2.0 * math.pi, 256)
_T = np.linspace(0.0, 3.0, 512)
_CP, _SP, _CT, _ST = np.cos(_PHI), np.sin(_PHI), np.cos(_T), np.sin(_T)
_DEV_A = np.abs(_CT - 0.1)
_ROWS = np.arange(len(_PHI))


def numpy_kernel() -> None:
    """Array work shaped like a slice of the oracle's numpy scan at the
    default 256 x 512 (phi0, t) grid: outer products, abs, maximum, argmin."""
    for _ in range(3):
        re = np.outer(_CP, _CT) - np.outer(_SP, _ST)
        im = np.outer(_SP, _CT) + np.outer(_CP, _ST)
        np.abs(re - 0.3, out=re)
        np.abs(im + 0.2, out=im)
        d = np.maximum(np.maximum(re, im), _DEV_A[None, :])
        d[_ROWS, np.argmin(d, axis=1)]


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}
# Fastest time of each kernel on a 2-vCPU shared x86-64 VM (Python 3.11,
# numpy 2.4) in a quiet stretch.
REFERENCE_S = {"python": 0.61e-3, "numpy": 5.5e-3}


def fastest(kernel: str, repeats: int) -> float:
    fn = KERNELS[kernel]
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class Calibration:
    """Times `kernel` between ops, at most once per INTERVAL_S."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.times: list[float] = []
        self._due = 0.0

    def between_ops(self, now: float) -> None:
        if now >= self._due:
            self.times.append(fastest(self.kernel, 1))
            self._due = time.perf_counter() + INTERVAL_S

    def slowdown(self) -> float:
        """Fastest kernel time of the run over the reference time."""
        return min(self.times) / REFERENCE_S[self.kernel]
