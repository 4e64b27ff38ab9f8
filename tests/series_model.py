"""Reference models of the series code, as element loops.

- `recenter`, `deflate` and `cauchy_product` as they were written before
  recentering and deflation became one shifted sum: each output
  coefficient restarts the powers of x0 from one, and every accumulator
  starts empty.
- `eval` as Horner's rule over `FieldElement`s, total <- total * x + a_j,
  before it became one kernel on (valuation, unit, abs_precision) ints;
  `exp_series` as a plain series storing every 1/j! that such a loop
  reads to its target, for E and for E', before E was evaluated in
  closed form and stored only a short table; `exp_eval` as that loop
  over it (the domain check stays the library's).  `eval` of the
  library's E (or E') at a target >= 1 is that `exp_eval` to
  min(target, digits of x): E is an isometry on its domain, so E(x) is
  known to exactly the digits of x, however short the table it stores.
- `inverse_factorials` as one `pow(free, -1, p^top)` per index, before
  the table was built with a single inversion.

The library must return exactly what these return (coefficients, tail,
values and refusals).
"""

from __future__ import annotations

import math
from fractions import Fraction

from dvfield.errors import DomainError
from dvfield.localfield import FieldDescriptor, FieldElement
from dvfield.series import TailProfile, TruncatedSeries
from dvfield.special import _Exponential, e_min
from dvfield.valuation import factorial_valuation


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


def eval(self: TruncatedSeries, x: FieldElement, target_prec: int) -> FieldElement:
    if x.descriptor != self.descriptor:
        raise ValueError("mismatched field descriptors")
    m = x.valuation_lower_bound
    if not self.admits_radius(m):
        raise DomainError(
            f"argument magnitude q^(-{m}) outside the convergence domain")
    if isinstance(self, _Exponential) and target_prec >= 1:
        return exp_eval(x, min(target_prec, x.abs_precision))
    cut = self._cutoff(m, target_prec)
    f = self.materialized(cut)
    if cut == 0:
        return FieldElement.zero_to_precision(self.descriptor, target_prec)
    total = f.coeffs[cut - 1]
    for j in range(cut - 2, -1, -1):
        total = total * x + f.coeffs[j]
    return total.truncate(min(target_prec, total.abs_precision))


def exp_series(descriptor: FieldDescriptor, target_prec: int) -> TruncatedSeries:
    p = descriptor.q
    slope = Fraction(-1, p - 1)
    intercept = Fraction(1, p - 1)
    m = e_min(p)
    cut = math.ceil((Fraction(target_prec) - intercept) / (slope + m))
    coeff_prec = target_prec + factorial_valuation(p, cut + p) + 2

    def factory(j: int) -> FieldElement:
        return FieldElement.from_rational(descriptor, 1, math.factorial(j), coeff_prec)

    stored = max(2, math.ceil((Fraction(target_prec) - intercept - slope)
                              / (slope + m)) + 1)
    coeffs = inverse_factorials(descriptor, stored, coeff_prec)
    return TruncatedSeries(descriptor, coeffs, TailProfile(1, slope, intercept), factory)


def exp_eval(x: FieldElement, target_prec: int) -> FieldElement:
    y = eval(exp_series(x.descriptor, target_prec), x, target_prec)
    return y.truncate(target_prec)


def inverse_factorials(descriptor: FieldDescriptor, count: int, prec: int):
    p = descriptor.q
    top = prec + factorial_valuation(p, count - 1)
    modulus = p ** top
    inv, v = 1, 0
    out = []
    for j in range(count):
        if j:
            free = j
            while free % p == 0:
                free //= p
                v += 1
            inv = inv * pow(free, -1, modulus) % modulus
        out.append(FieldElement(descriptor, -v, inv, top - v).truncate(prec))
    return tuple(out)
