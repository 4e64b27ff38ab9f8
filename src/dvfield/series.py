"""Truncated power series with certified tail bounds.

A series stores finitely many coefficients at working precision plus an
optional TailProfile promising a valuation lower bound for every later
coefficient.  The profile carries a linear minorant slope*j + intercept
(exact Fractions), which makes every supremum, cutoff, and domination
question a finite integer computation: a closed ball of radius q^(-m) is
admissible exactly when slope + m > 0, since then term valuations grow
without bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .errors import DomainError, InsufficientPrecision
from .localfield import FieldDescriptor, FieldElement
from .valuation import Magnitude, Valuation


@dataclass(frozen=True)
class TailProfile:
    """Certified bound v(a_j) >= slope*j + intercept for all j >= start."""

    start: int
    slope: Fraction
    intercept: Fraction

    def admits_radius(self, m: int) -> bool:
        return self.slope + m > 0


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    descriptor: FieldDescriptor
    coeffs: Tuple[FieldElement, ...]
    tail: Optional[TailProfile] = None
    coeff_factory: Optional[Callable[[int], FieldElement]] = None

    def __post_init__(self):
        if self.tail is not None and self.tail.start > len(self.coeffs):
            raise ValueError(
                f"tail starts at index {self.tail.start} but only "
                f"{len(self.coeffs)} coefficients are stored")

    # -- shape ---------------------------------------------------------

    @property
    def stored_len(self) -> int:
        return len(self.coeffs)

    @property
    def is_polynomial(self) -> bool:
        return self.tail is None

    @property
    def working_precision(self) -> int:
        precs = [c.abs_precision for c in self.coeffs]
        if not precs:
            raise InsufficientPrecision("series stores no coefficients")
        return min(precs)

    def admits_radius(self, m: int) -> bool:
        return self.tail is None or self.tail.admits_radius(m)

    def require_radius(self, m: int) -> None:
        if not self.admits_radius(m):
            raise DomainError(
                f"radius exponent {m} inadmissible for this tail profile")

    def _zero_coeff(self) -> FieldElement:
        return FieldElement.zero_to_precision(self.descriptor, self.working_precision)

    def materialized(self, upto: int) -> "TruncatedSeries":
        """A copy storing coefficients a_0..a_{upto-1} explicitly."""
        if self.stored_len >= upto:
            return self
        if self.tail is None:
            extra = tuple(self._zero_coeff() for _ in range(upto - self.stored_len))
            return TruncatedSeries(self.descriptor, self.coeffs + extra)
        if self.coeff_factory is None:
            raise InsufficientPrecision(
                f"need coefficients through index {upto - 1}, "
                f"only {self.stored_len} stored")
        extra = tuple(self.coeff_factory(j) for j in range(self.stored_len, upto))
        return TruncatedSeries(self.descriptor, self.coeffs + extra,
                               self.tail, self.coeff_factory)

    def global_minorant(self) -> Tuple[Fraction, Fraction]:
        """(slope, intercept) with v(a_j) >= slope*j + intercept for ALL j >= 0."""
        if self.tail is None:
            slope = Fraction(0)
        else:
            slope = self.tail.slope
        intercepts = []
        for j, c in enumerate(self.coeffs):
            intercepts.append(Fraction(c.valuation_lower_bound) - slope * j)
        if self.tail is not None:
            # tail slope equals the result slope here, so its intercept
            # transfers unchanged
            intercepts.append(self.tail.intercept)
        return slope, min(intercepts) if intercepts else Fraction(0)

    # -- suprema ---------------------------------------------------------

    def sup_exponent(self, m: int, k: int) -> Valuation:
        """min over j >= k of v(a_j) + m*(j - k): the exponent of
        M_k(q^(-m)) = max_{j>=k} |a_j| q^(-m(j-k)).  Certified lower
        bound (magnitude upper bound); exact when attained by a
        determined coefficient."""
        self.require_radius(m)
        candidates = []
        for j in range(k, self.stored_len):
            candidates.append(self.coeffs[j].valuation_lower_bound + m * (j - k))
        if self.tail is not None:
            # the per-index bound ceil(slope*j + intercept) + m*(j - k) is
            # nondecreasing from j0 on because slope + m > 0
            j0 = max(self.stored_len, self.tail.start, k)
            candidates.append(math.ceil(
                self.tail.slope * j0 + self.tail.intercept) + m * (j0 - k))
        if not candidates:
            return Magnitude.zero(self.descriptor.q).exponent
        return min(candidates)

    def sup_term(self, m: int, k: int) -> Magnitude:
        return Magnitude(self.descriptor.q, self.sup_exponent(m, k))

    # -- calculus ---------------------------------------------------------

    def eval(self, x: FieldElement, target_prec: int) -> FieldElement:
        """The sum at x modulo q^min(target_prec, P), where P is the
        precision the stored coefficients and x support; every dropped
        term is certified to have valuation >= target_prec.  Callers that
        need the full target check the result's abs_precision."""
        if x.descriptor != self.descriptor:
            raise ValueError("mismatched field descriptors")
        m = x.valuation_lower_bound
        if not self.admits_radius(m):
            raise DomainError(
                f"argument magnitude q^(-{m}) outside the convergence domain")
        cut = self._cutoff(m, target_prec)
        f = self.materialized(cut)
        if cut == 0:
            return FieldElement.zero_to_precision(self.descriptor, target_prec)
        total = f.coeffs[cut - 1]
        for j in range(cut - 2, -1, -1):
            total = total * x + f.coeffs[j]
        return total.truncate(min(target_prec, total.abs_precision))

    def _cutoff(self, m: int, target_prec: int) -> int:
        if self.tail is None:
            return self.stored_len
        s, i = self.tail.slope, self.tail.intercept
        # smallest J with (s+m)*j + i >= target for all j >= J
        return max(self.tail.start, math.ceil((Fraction(target_prec) - i) / (s + m)), 0)

    def derivative(self) -> "TruncatedSeries":
        coeffs = tuple(self.coeffs[j].mul_integer(j)
                       for j in range(1, self.stored_len))
        tail = None
        if self.tail is not None:
            old = self.tail
            tail = TailProfile(max(old.start - 1, 0), old.slope,
                               old.intercept + old.slope)
        factory = None
        if self.coeff_factory is not None:
            factory = lambda j, fac=self.coeff_factory: fac(j + 1).mul_integer(j + 1)
        return TruncatedSeries(self.descriptor, coeffs, tail, factory)

    def cauchy_product(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.descriptor != self.descriptor:
            raise ValueError("mismatched field descriptors")
        if self.is_polynomial and other.is_polynomial:
            n_out = max(self.stored_len + other.stored_len - 1, 0)
        else:
            n_out = min(self.stored_len, other.stored_len)
        coeffs = []
        zf = self._zero_coeff() if self.coeffs else other._zero_coeff()
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
            slope = min(sf, sg)
            # v(c_n) >= min_j (v(a_j) + v(b_{n-j})) >= slope*n + if_ + ig
            tail = TailProfile(n_out, slope, if_ + ig)
        return TruncatedSeries(self.descriptor, tuple(coeffs), tail)

    # -- recentering and deflation ----------------------------------------

    def _materialize_for_shift(self, x0: FieldElement, m: int) -> "TruncatedSeries":
        self.require_radius(m)
        if x0.valuation_lower_bound < m:
            raise DomainError("center magnitude exceeds the ball radius")
        if self.tail is None:
            return self
        target = self.working_precision
        s, i = self.tail.slope, self.tail.intercept
        # all dropped source terms a_l x0^(l-j), j < stored_len, must have
        # valuation >= target: (s+m)l + i - m*(stored_len-1) >= target
        need = Fraction(target + m * max(self.stored_len - 1, 0)) - i
        cut = max(self.tail.start, self.stored_len, math.ceil(need / (s + m)))
        return self.materialized(cut)

    def _dropped_tail_bound(self, cut: int, m: int, j: int) -> Optional[int]:
        """Certified valuation of the contribution of source indices >= cut
        to the j-th shifted coefficient: min_{l>=cut} (v(a_l) + m(l - j))."""
        if self.tail is None:
            return None
        s, i = self.tail.slope, self.tail.intercept
        return math.ceil(s * cut + i) + m * (cut - j)

    def recenter(self, x0: FieldElement, m: int) -> "TruncatedSeries":
        """Coefficients of f(x0 + W) as a series in W on |W| <= q^(-m)."""
        f = self._materialize_for_shift(x0, m)
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
                acc = self._zero_coeff()
            bound = self._dropped_tail_bound(f.stored_len, m, j)
            if bound is not None:
                acc = acc.truncate(min(acc.abs_precision, bound))
            coeffs.append(acc)
        tail = None
        if self.tail is not None:
            slope, intercept = self.global_minorant()
            tail = TailProfile(max(self.tail.start, len(coeffs)), slope,
                               intercept)
        return TruncatedSeries(self.descriptor, tuple(coeffs), tail)

    def deflate(self, x0: FieldElement, m: int) -> "TruncatedSeries":
        """g0 with f(x) - f(x0) = (x - x0) * g0(x) on |x| <= q^(-m);
        coefficient b_l = sum_{j >= l+1} a_j x0^(j-l-1), so g0(x0) = f'(x0)."""
        f = self._materialize_for_shift(x0, m)
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
                acc = self._zero_coeff()
            bound = self._dropped_tail_bound(f.stored_len, m, l + 1)
            if bound is not None:
                acc = acc.truncate(min(acc.abs_precision, bound))
            coeffs.append(acc)
        tail = None
        if self.tail is not None:
            slope, intercept = self.global_minorant()
            tail = TailProfile(max(self.tail.start - 1, n_out), slope,
                               intercept + slope)
        return TruncatedSeries(self.descriptor, tuple(coeffs), tail)

    # -- analytic criteria --------------------------------------------------

    def convergence_threshold(self) -> Optional[int]:
        """Least valuation e with v(x) >= e implying term valuations tend
        to INFINITY; None for polynomials (every x is admissible)."""
        if self.tail is None:
            return None
        return math.floor(-self.tail.slope) + 1

    def isometry_criterion(self, m: int, y: FieldElement,
                           separation_exponent: int) -> Tuple[bool, Magnitude]:
        """Whether M2(q^(-m)) * q^(-separation) < |f'(y)|, certifying
        |f(x) - f(y)| = |f'(y)| |x - y| for v(x - y) >= separation."""
        if y.valuation_lower_bound < m:
            raise DomainError("y lies outside the ball")
        # truncate raises PrecisionExhausted when eval falls short
        fp = self.derivative().eval(y, y.abs_precision).truncate(y.abs_precision)
        fp_mag = fp.magnitude()
        e_m2 = self.sup_exponent(m, 2)
        certified = e_m2 + separation_exponent > fp_mag.exponent
        return certified, fp_mag


def polynomial(descriptor: FieldDescriptor, rational_coeffs, prec: int) -> TruncatedSeries:
    """Convenience builder from Fraction/int coefficients."""
    coeffs = []
    for c in rational_coeffs:
        fr = Fraction(c)
        coeffs.append(FieldElement.from_rational(
            descriptor, fr.numerator, fr.denominator, prec))
    return TruncatedSeries(descriptor, tuple(coeffs))
