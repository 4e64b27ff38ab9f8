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

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from .errors import DomainError, InsufficientPrecision
from .localfield import FieldDescriptor, FieldElement
from .valuation import INFINITY, Valuation


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

    def _require_argument(self, x: FieldElement) -> int:
        """x's valuation lower bound m, once x is checked to lie in this
        series' field and convergence domain."""
        if x.descriptor != self.descriptor:
            raise ValueError("mismatched field descriptors")
        m = x.valuation_lower_bound
        if not self.admits_radius(m):
            raise DomainError(
                f"argument magnitude q^(-{m}) outside the convergence domain")
        return m

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
            return INFINITY
        return min(candidates)

    # -- calculus ---------------------------------------------------------

    def eval(self, x: FieldElement, target_prec: int) -> FieldElement:
        """The sum at x modulo q^min(target_prec, P), where P is the
        precision the stored coefficients and x support; every dropped
        term is certified to have valuation >= target_prec.  Callers that
        need the full target check the result's abs_precision.

        Horner's rule runs on (valuation, unit, abs_precision) triples
        (`_horner`), which builds no element until the result."""
        cut = self._cutoff(self._require_argument(x), target_prec)
        f = self.materialized(cut)
        if cut == 0:
            return FieldElement.zero_to_precision(self.descriptor, target_prec)
        v, u, N = _horner(self.descriptor.arith, f.coeffs[:cut], x)
        total = FieldElement(self.descriptor, v, u, N)
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
        a, b = self.coeffs, other.coeffs
        if self.is_polynomial and other.is_polynomial:
            n_out = max(len(a) + len(b) - 1, 0)
        else:
            n_out = min(len(a), len(b))
        if a and b:
            coeffs = tuple(
                functools.reduce(operator.add, (
                    a[j] * b[n - j]
                    for j in range(max(0, n - len(b) + 1), min(n + 1, len(a)))))
                for n in range(n_out))
        else:
            # an empty polynomial is zero to the other factor's precision;
            # two empty factors fix no precision, and _zero_coeff raises
            coeffs = ((self if a else other)._zero_coeff(),) * n_out
        tail = None
        if not (self.is_polynomial and other.is_polynomial):
            sf, if_ = self.global_minorant()
            sg, ig = other.global_minorant()
            # v(c_n) >= min_j (v(a_j) + v(b_{n-j})) >= slope*n + if_ + ig
            tail = TailProfile(n_out, min(sf, sg), if_ + ig)
        return TruncatedSeries(self.descriptor, coeffs, tail)

    # -- recentering and deflation ----------------------------------------

    def _shifted_sums(self, x0: FieldElement, m: int, first: int,
                      binomial: bool) -> Tuple[FieldElement, ...]:
        """c_j = sum_{l >= j} w(l, j) a_l x0^(l-j) for first <= j < n, with
        w = C(l, j) when binomial and 1 otherwise, over the n coefficients
        past which every dropped term a_l x0^(l-j) has valuation at least
        the working precision.  With a tail, each c_j is cut to the
        certified valuation of its dropped terms."""
        self.require_radius(m)
        if x0.valuation_lower_bound < m:
            raise DomainError("center magnitude exceeds the ball radius")
        f = self
        if self.tail is not None:
            s, i = self.tail.slope, self.tail.intercept
            # dropped terms need (s+m)l + i - m*(stored_len-1) >= target
            need = Fraction(self.working_precision + m * max(self.stored_len - 1, 0)) - i
            f = self.materialized(max(self.tail.start, self.stored_len,
                                      math.ceil(need / (s + m))))
            # min_{l>=n} v(a_l) + m(l - j) is ceil(s*n + i) + m(n - j)
            dropped = math.ceil(s * f.stored_len + i) + m * f.stored_len
        n = f.stored_len
        if n <= first:
            return ()
        powers = [FieldElement.one(self.descriptor, x0.abs_precision + f.working_precision)]
        for _ in range(first + 1, n):
            powers.append(powers[-1] * x0)

        def term(l: int, j: int) -> FieldElement:
            t = f.coeffs[l] * powers[l - j]
            return t.mul_integer(math.comb(l, j)) if binomial else t

        coeffs = []
        for j in range(first, n):
            c = functools.reduce(operator.add, (term(l, j) for l in range(j, n)))
            if self.tail is not None:
                c = c.truncate(min(c.abs_precision, dropped - m * j))
            coeffs.append(c)
        return tuple(coeffs)

    def recenter(self, x0: FieldElement, m: int) -> "TruncatedSeries":
        """Coefficients of f(x0 + W) as a series in W on |W| <= q^(-m)."""
        coeffs = self._shifted_sums(x0, m, 0, binomial=True)
        tail = None
        if self.tail is not None:
            slope, intercept = self.global_minorant()
            tail = TailProfile(max(self.tail.start, len(coeffs)), slope, intercept)
        return TruncatedSeries(self.descriptor, coeffs, tail)

    def deflate(self, x0: FieldElement, m: int) -> "TruncatedSeries":
        """g0 with f(x) - f(x0) = (x - x0) * g0(x) on |x| <= q^(-m);
        coefficient b_l = sum_{j >= l+1} a_j x0^(j-l-1), so g0(x0) = f'(x0)."""
        coeffs = self._shifted_sums(x0, m, 1, binomial=False)
        tail = None
        if self.tail is not None:
            slope, intercept = self.global_minorant()
            tail = TailProfile(max(self.tail.start - 1, len(coeffs)), slope,
                               intercept + slope)
        return TruncatedSeries(self.descriptor, coeffs, tail)

    # -- analytic criteria --------------------------------------------------

    def isometry_criterion(self, m: int, y: FieldElement,
                           separation_exponent: int) -> Optional[int]:
        """v(f'(y)) when M2(q^(-m)) * q^(-separation) < |f'(y)| is
        certified, which gives |f(x) - f(y)| = |f'(y)| |x - y| for
        v(x - y) >= separation; None otherwise.  Only v(f'(y)) is read,
        at the precision eval certifies: f'(y) zero there gives None."""
        self.require_radius(m)
        if y.valuation_lower_bound < m:
            raise DomainError("y lies outside the ball")
        fp = self.derivative().eval(y, y.abs_precision)
        if fp.is_zero_to_precision:
            return None
        if self.sup_exponent(m, 2) + separation_exponent > fp.valuation:
            return fp.valuation
        return None


def _horner(K, coeffs: Sequence[FieldElement],
            x: FieldElement) -> Tuple[Valuation, int, int]:
    """sum_j coeffs[j] x^j as (valuation, unit, abs_precision), by
    total <- total * x + coeffs[j] from the top, on triples through the
    kind's product and sum rules K.mul3 and K.add3.  FieldElement's `*`
    and `+` apply the same two rules, so the triple is the one the same
    loop over elements returns."""
    mul3, add3 = K.mul3, K.add3
    xv, xu, xN = x.valuation, x.unit, x.abs_precision
    top_down = reversed(coeffs)
    top = next(top_down)
    v, u, N = top.valuation, top.unit, top.abs_precision
    for c in top_down:
        v, u, N = mul3(v, u, N, xv, xu, xN)
        v, u, N = add3(v, u, N, c.valuation, c.unit, c.abs_precision)
    return v, u, N


def polynomial(descriptor: FieldDescriptor, rational_coeffs, prec: int) -> TruncatedSeries:
    """Convenience builder from Fraction/int coefficients."""
    coeffs = []
    for c in rational_coeffs:
        fr = Fraction(c)
        coeffs.append(FieldElement.from_rational(
            descriptor, fr.numerator, fr.denominator, prec))
    return TruncatedSeries(descriptor, tuple(coeffs))
