"""Reference model of the shifted sums: the per-coefficient loops.

`recenter`, `deflate` and `cauchy_product` as they were written before
recentering and deflation became one shifted sum: each output
coefficient restarts the powers of x0 from one, and every accumulator
starts empty.  The library's methods must return exactly what these
return (coefficients, tail and refusals).
"""

from __future__ import annotations

import math
from fractions import Fraction

from dvfield.errors import DomainError
from dvfield.localfield import FieldElement
from dvfield.series import TailProfile, TruncatedSeries


def _zero_coeff(f: TruncatedSeries) -> FieldElement:
    return FieldElement.zero_to_precision(f.descriptor, f.working_precision)


def _materialize_for_shift(f: TruncatedSeries, x0: FieldElement, m: int) -> TruncatedSeries:
    f.require_radius(m)
    if x0.valuation_lower_bound < m:
        raise DomainError("center magnitude exceeds the ball radius")
    if f.tail is None:
        return f
    target = f.working_precision
    s, i = f.tail.slope, f.tail.intercept
    need = Fraction(target + m * max(f.stored_len - 1, 0)) - i
    cut = max(f.tail.start, f.stored_len, math.ceil(need / (s + m)))
    return f.materialized(cut)


def _dropped_tail_bound(f: TruncatedSeries, cut: int, m: int, j: int):
    if f.tail is None:
        return None
    s, i = f.tail.slope, f.tail.intercept
    return math.ceil(s * cut + i) + m * (cut - j)


def recenter(self: TruncatedSeries, x0: FieldElement, m: int) -> TruncatedSeries:
    f = _materialize_for_shift(self, x0, m)
    coeffs = []
    for j in range(f.stored_len):
        acc = None
        power = None
        for l in range(j, f.stored_len):
            if power is None:
                power = FieldElement.from_rational(
                    self.descriptor, 1, 1, x0.abs_precision + f.working_precision)
            else:
                power = power * x0
            term = (f.coeffs[l] * power).mul_integer(math.comb(l, j))
            acc = term if acc is None else acc + term
        if acc is None:
            acc = _zero_coeff(self)
        bound = _dropped_tail_bound(self, f.stored_len, m, j)
        if bound is not None:
            acc = acc.truncate(min(acc.abs_precision, bound))
        coeffs.append(acc)
    tail = None
    if self.tail is not None:
        slope, intercept = self.global_minorant()
        tail = TailProfile(max(self.tail.start, len(coeffs)), slope, intercept)
    return TruncatedSeries(self.descriptor, tuple(coeffs), tail)


def deflate(self: TruncatedSeries, x0: FieldElement, m: int) -> TruncatedSeries:
    f = _materialize_for_shift(self, x0, m)
    n_out = max(f.stored_len - 1, 0)
    coeffs = []
    for l in range(n_out):
        acc = None
        power = None
        for j in range(l + 1, f.stored_len):
            if power is None:
                power = FieldElement.from_rational(
                    self.descriptor, 1, 1, x0.abs_precision + f.working_precision)
            else:
                power = power * x0
            term = f.coeffs[j] * power
            acc = term if acc is None else acc + term
        if acc is None:
            acc = _zero_coeff(self)
        bound = _dropped_tail_bound(self, f.stored_len, m, l + 1)
        if bound is not None:
            acc = acc.truncate(min(acc.abs_precision, bound))
        coeffs.append(acc)
    tail = None
    if self.tail is not None:
        slope, intercept = self.global_minorant()
        tail = TailProfile(max(self.tail.start - 1, n_out), slope, intercept + slope)
    return TruncatedSeries(self.descriptor, tuple(coeffs), tail)


def cauchy_product(self: TruncatedSeries, other: TruncatedSeries) -> TruncatedSeries:
    if other.descriptor != self.descriptor:
        raise ValueError("mismatched field descriptors")
    if self.is_polynomial and other.is_polynomial:
        n_out = max(self.stored_len + other.stored_len - 1, 0)
    else:
        n_out = min(self.stored_len, other.stored_len)
    coeffs = []
    zf = _zero_coeff(self) if self.coeffs else _zero_coeff(other)
    for n in range(n_out):
        acc = None
        for j in range(n + 1):
            a = self.coeffs[j] if j < self.stored_len else None
            b = other.coeffs[n - j] if n - j < other.stored_len else None
            if a is None or b is None:
                continue
            term = a * b
            acc = term if acc is None else acc + term
        coeffs.append(acc if acc is not None else zf)
    tail = None
    if not (self.is_polynomial and other.is_polynomial):
        sf, if_ = self.global_minorant()
        sg, ig = other.global_minorant()
        tail = TailProfile(n_out, min(sf, sg), if_ + ig)
    return TruncatedSeries(self.descriptor, tuple(coeffs), tail)
