"""Machine-speed probe for a shared host.

On a host shared with other tenants the same work takes up to twice as long
from one second to the next, and the slow spells drift over minutes, so raw
wall times from runs minutes apart disagree by 15-30%. The probe times a
fixed kernel that the benchmark owns for a fifth of the time of each timed
command, right after it, so its samples spread over the run like the work
does. Each iteration's time is then rescaled by NOMINAL_S over the probe's
mean kernel time during that iteration, which reads as seconds at the
probe's nominal speed. No emomusic code runs in the kernel, so a change to
the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time at the fast end of what the benchmark host shows (2 cores,
# OpenBLAS, one thread); only a unit, it cancels in every comparison.
NOMINAL_S = 0.020
# Probe time per second of timed work; more tracks the machine better and
# lengthens every run.
SHARE = 0.2

_RNG = np.random.default_rng(20230701)
_SMALL = _RNG.standard_normal((64, 64)) / 8.0
_BLAS = _RNG.standard_normal((160, 160))


def reference_kernel() -> float:
    """About 20 ms of interpreter work, small numpy ops and BLAS, in roughly
    equal parts: the mix that emomusic's features, forest, decoding and
    training spend their time in. A memory-bound sort tracked the program's
    slow spells worse and is left out."""
    counts: dict[int, int] = {}
    for i in range(40_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    x = np.ones(64)
    for _ in range(3_000):
        x = np.tanh(_SMALL @ x)
    for _ in range(40):
        _BLAS @ _BLAS
    return float(x[0] + len(counts))


class SpeedProbe:
    def __init__(self) -> None:
        self.seconds = 0.0
        self.kernels = 0

    def after(self, busy_seconds: float) -> None:
        """Run the kernel for SHARE * busy_seconds, and at least twice."""
        start = time.perf_counter()
        runs = 0
        while runs < 2 or time.perf_counter() - start < SHARE * busy_seconds:
            reference_kernel()
            runs += 1
        self.seconds += time.perf_counter() - start
        self.kernels += runs

    def mark(self) -> tuple[float, int]:
        return self.seconds, self.kernels

    def scale_since(self, mark: tuple[float, int]) -> float:
        """Factor that turns seconds measured since mark into seconds at the
        nominal speed, from the kernels run since mark."""
        seconds, kernels = self.seconds - mark[0], self.kernels - mark[1]
        return NOMINAL_S * kernels / seconds
