"""Element-kernel precision sweep with a big-int baseline.

Times add, mul, inverse and from_rational on units of Q_5 and F_5((T))
at N in {16, 64, 256, 1024}, next to a raw x*y % 5**N, and fits the
log-log growth exponent of mul in N.  Each figure is the median over
several batches of calls, each batch long enough for the clock, in CPU
seconds of the calling thread.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Callable, Dict, List

import dvfield as dv

from workloads import laurent

SIZES = (16, 64, 256, 1024)
KERNELS = ("add", "mul", "inverse", "from_rational")
Q = 5


BATCHES = 5
MIN_BATCH_S = 0.002


def time_call(fn: Callable[[], object]) -> float:
    """Median CPU seconds per call of fn over BATCHES batches."""
    reps = 1
    while True:
        t0 = time.thread_time()
        for _ in range(reps):
            fn()
        if time.thread_time() - t0 >= MIN_BATCH_S or reps >= 1 << 16:
            break
        reps *= 4
    samples = []
    for _ in range(BATCHES):
        t0 = time.thread_time()
        for _ in range(reps):
            fn()
        samples.append((time.thread_time() - t0) / reps)
    return statistics.median(samples)


def slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def _unit_int(rng: random.Random, N: int) -> int:
    return rng.randrange(Q ** (N - 1)) * Q + 1 + rng.randrange(Q - 1)


def _unit_digits(rng: random.Random, N: int) -> List[int]:
    return [1 + rng.randrange(Q - 1)] + [rng.randrange(Q) for _ in range(N - 1)]


def sweep(seed: int) -> Dict[str, float]:
    rng = random.Random(f"kernels:{seed}")
    out: Dict[str, float] = {}
    for kind in ("padic", "laurent"):
        F = dv.Qp(Q) if kind == "padic" else dv.laurent_field(Q)
        mul_times = []
        for N in SIZES:
            if kind == "padic":
                a = dv.FieldElement.from_rational(F, _unit_int(rng, N), 1, N)
                b = dv.FieldElement.from_rational(F, _unit_int(rng, N), 1, N)
                num, den = _unit_int(rng, N), _unit_int(rng, N)
            else:
                a = laurent(F, _unit_digits(rng, N), N)
                b = laurent(F, _unit_digits(rng, N), N)
                num, den = 1 + rng.randrange(Q - 1), 1 + rng.randrange(Q - 1)
            calls = {
                "add": lambda: a + b,
                "mul": lambda: a * b,
                "inverse": a.inverse,
                "from_rational": lambda: dv.FieldElement.from_rational(F, num, den, N),
            }
            for k in KERNELS:
                t = time_call(calls[k])
                out[f"localfield.{k}.{kind}.N{N}_us"] = t * 1e6
                if k == "mul":
                    mul_times.append(t)
        out[f"localfield.mul.{kind}.growth"] = slope(list(SIZES), mul_times)
    for N in SIZES:
        m = Q ** N
        x, y = rng.randrange(m), rng.randrange(m)
        out[f"localfield.baseline_intmulmod.N{N}_us"] = time_call(lambda: x * y % m) * 1e6
    return out
