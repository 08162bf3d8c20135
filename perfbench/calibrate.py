"""Reference kernel for the machine's current speed.

On a shared host the speed of a core drifts by tens of percent over minutes,
which no run length averages away.  The timed loop runs this kernel every
tenth of a second between queries; its median duration around a timing,
against REFERENCE_S and raised to ELASTICITY, gives the machine's slowdown
during that timing, and the timing is scaled by it.  The kernel does the
same kind of work as the package (small dense numpy row operations driven
from Python loops) but never calls the package.  It does run in the same
interpreter, right after a query, so a program change that alters the heap,
the garbage collector or the CPU caches it leaves behind can move the kernel
a little, and scaling would then hide that part of the change; the unscaled
figures are reported next to the scaled ones for that reason.
"""

from __future__ import annotations

from itertools import product
from time import perf_counter

import numpy as np

# Median kernel duration on the reference machine (2-vCPU KVM guest,
# Intel Xeon Sapphire Rapids, Python 3.11, numpy 2.4).
REFERENCE_S = 1.75e-3
PERIOD_S = 0.1  # least time between two kernel runs
# The package slows down less than the kernel when the host does.  Over 157
# passes of pair_audit and file_queries on the reference machine, while its
# kernel time moved between 1.0 and 2.1 times REFERENCE_S, log throughput
# fell by 0.70 and 0.68 per unit of log kernel time (correlation 0.92).
# baseline.py checks the fit on every workload.
ELASTICITY = 0.7

_A = np.random.default_rng(12345).uniform(0.1, 1.0, (10, 24))
_B = np.ones(10)


def _phase_one(A: np.ndarray, b: np.ndarray) -> float:
    """Phase one of a tableau simplex with Bland's rule on a fixed LP."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = A.sum(axis=0)
    T[-1, -1] = b.sum()
    for _ in range(500):
        cols = np.nonzero(T[-1, :n] > 1e-9)[0]
        if cols.size == 0:
            break
        c = cols[0]
        rows = np.nonzero(T[:m, c] > 1e-10)[0]
        r = rows[np.argmin(T[rows, -1] / T[rows, c])]
        T[r] /= T[r, c]
        f = T[:, c].copy()
        f[r] = 0.0
        T -= np.outer(f, T[r])
    return float(T[-1, -1])


def kernel() -> float:
    total = _phase_one(_A, _B)
    vecs = _A[:4, :3]
    for combo in product(range(4), repeat=4):
        total += float(np.abs(vecs[list(combo)].sum(axis=0)).max())
    return total


class SpeedProbe:
    """Runs the kernel at most every PERIOD_S seconds and keeps (start, duration)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def maybe_run(self) -> None:
        now = perf_counter()
        if not self.samples or now - self.samples[-1][0] >= PERIOD_S:
            kernel()
            self.samples.append((now, perf_counter() - now))

    def slowdown(self, start: float, end: float) -> float:
        """(Median kernel duration between start and end, all samples if there
        are none, over REFERENCE_S) ** ELASTICITY: above 1 on a slow machine."""
        durations = [d for t, d in self.samples if start <= t <= end] or [d for _, d in self.samples]
        return (float(np.median(durations)) / REFERENCE_S) ** ELASTICITY
