"""Calibration of the benchmark's times against a frozen reference task.

On a shared machine the CPU time of the same Python code drifts by a
third between phases that last minutes, as other tenants load the
shared cores and caches.  A run therefore times, between its operations,
a fixed reference task that drives the interpreter the way the seed
library's element arithmetic does (digit tuples converted to and from
ints, frozen dataclass instances).  The task lives here, frozen, so no
change to dvfield moves it.  Every time a run reports is its measured CPU
time scaled by (NOMINAL_S / the reference's median CPU time in that
run) ** DAMPING: about the time the work would have taken on the
machine, in the phase, that NOMINAL_S was measured on.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import List

# median CPU time of reference_seconds() on an Intel Xeon with 2 shared
# vCPUs under Python 3.11.7, in that machine's fast phase
NOMINAL_S = 0.0011
SAMPLE_EVERY_S = 0.1
# The reference task, a tight interpreter loop over small ints and
# tuples, speeds up and slows down more between the machine's phases
# than the workloads do (it ran 1.6 times as fast in a fast phase, the
# padic-exp-log operations 1.2 times).  Over sets of ten 25 s runs of the
# four workloads, scaling by the ratio to the power 3/4 gave the
# smallest spread of every timed end-to-end metric; the full ratio
# over-corrected and doubled some spreads.
DAMPING = 0.75


@dataclass(frozen=True)
class _Element:
    valuation: int
    digits: tuple
    precision: int


def _to_int(digits: tuple, q: int) -> int:
    n = 0
    for d in reversed(digits):
        n = n * q + d
    return n


def _to_digits(n: int, q: int, k: int) -> tuple:
    out = []
    for _ in range(k):
        n, d = divmod(n, q)
        out.append(d)
    return tuple(out)


def _combine(a: _Element, b: _Element, q: int, multiply: bool) -> _Element:
    k = min(len(a.digits), len(b.digits))
    x, y = _to_int(a.digits, q), _to_int(b.digits, q)
    n = (x * y if multiply else x + y) % q ** k
    return _Element(a.valuation, _to_digits(n, q, k), a.precision)


def reference_seconds() -> float:
    """CPU time of one pass of the reference task, with the garbage
    collector paused so that the library's heap does not leak into it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        for q, k, reps in ((5, 12, 60), (3, 40, 20), (7, 120, 4)):
            a = _Element(0, _to_digits(123456789 ** 3, q, k), k)
            b = _Element(0, _to_digits(987654321 ** 3, q, k), k)
            for _ in range(reps):
                c = _combine(a, b, q, multiply=True)
                a = _combine(c, b, q, multiply=False)
        return time.thread_time() - t0
    finally:
        if was_enabled:
            gc.enable()


class Calibration:
    """Reference samples of one stretch of a run, at most one every
    SAMPLE_EVERY_S seconds of wall time."""

    def __init__(self):
        self.samples: List[float] = [reference_seconds() for _ in range(5)]
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(reference_seconds())
            self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to calibrate it."""
        return (NOMINAL_S / statistics.median(self.samples)) ** DAMPING
