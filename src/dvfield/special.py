"""The exponential E(X) = sum X^j / j! over Q_p and its inverse.

Coefficient valuations come from the Legendre count of prime factors in
j!, giving the certified tail bound v(1/j!) >= -(j-1)/(p-1) and the
exact convergence domain v(x) >= 1 (p >= 3) or v(x) >= 2 (p = 2).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .localfield import FieldDescriptor, FieldElement, FieldKind
from .rootfind import HenselProblem, hensel_solve
from .series import TailProfile, TruncatedSeries
from .valuation import factorial_valuation


def e_min(p: int) -> int:
    """Least valuation admitted by the exponential's domain |x| < p^(-1/(p-1))."""
    return 2 if p == 2 else 1


def _require_padic(descriptor: FieldDescriptor) -> None:
    if descriptor.kind is not FieldKind.PADIC:
        raise DomainError(
            "the exponential needs characteristic zero: factorials vanish "
            "in the residue characteristic")


def exp_series(descriptor: FieldDescriptor, target_prec: int) -> TruncatedSeries:
    """E(X) with coefficients stored at enough precision to evaluate
    modulo q^target_prec anywhere in the convergence domain."""
    _require_padic(descriptor)
    p = descriptor.q
    slope = Fraction(-1, p - 1)
    intercept = Fraction(1, p - 1)
    m = e_min(p)
    # worst-case term count at the domain edge, then the worst coefficient
    # denominator valuation it can involve
    cut = math.ceil((Fraction(target_prec) - intercept) / (slope + m))
    coeff_prec = target_prec + factorial_valuation(p, cut + p) + 2

    def factory(j: int, _prec=coeff_prec, _d=descriptor) -> FieldElement:
        return FieldElement.from_rational(_d, 1, math.factorial(j), _prec)

    coeffs = tuple(factory(j) for j in range(2))
    tail = TailProfile(start=1, slope=slope, intercept=intercept)
    return TruncatedSeries(descriptor, coeffs, tail, factory)


def exp_eval(x: FieldElement, target_prec: int) -> FieldElement:
    """E(x) modulo q^target_prec; satisfies |E(x)| = 1 and |E(x) - 1| = |x|."""
    _require_padic(x.descriptor)
    if x.valuation_lower_bound < e_min(x.descriptor.q):
        raise DomainError(
            f"exponential diverges: need valuation >= {e_min(x.descriptor.q)}")
    y = exp_series(x.descriptor, target_prec).eval(x, target_prec)
    return y.truncate(target_prec)  # raises PrecisionExhausted when eval falls short


def exp_functional_check(x: FieldElement, y: FieldElement,
                         target_prec: int) -> bool:
    """Whether E(x + y) = E(x) E(y) modulo q^target_prec."""
    lhs = exp_eval(x + y, target_prec)
    rhs = (exp_eval(x, target_prec) * exp_eval(y, target_prec)).truncate(target_prec)
    return lhs.agrees_with(rhs, target_prec)


def log_solve(z: FieldElement, target_prec: int) -> FieldElement:
    """The unique x in the convergence domain with E(x) = z modulo
    q^target_prec, found by solving E(x) = z from x0 = 0 where E(0) = 1
    and E'(0) = 1."""
    _require_padic(z.descriptor)
    p = z.descriptor.q
    one = FieldElement.one(z.descriptor, z.abs_precision)
    if (z - one).valuation_lower_bound < e_min(p):
        raise DomainError(
            f"logarithm undefined: need valuation(z - 1) >= {e_min(p)}")
    f = exp_series(z.descriptor, target_prec)
    x0 = FieldElement.zero_to_precision(z.descriptor,
                                        min(z.abs_precision, f.working_precision))
    cert = hensel_solve(HenselProblem(f, x0, z, e_min(p), target_prec))
    return cert.root.truncate(min(cert.root.abs_precision, target_prec))
