"""The exponential E(X) = sum X^j / j! over Q_p and its inverse.

Coefficient valuations come from the Legendre count of prime factors in
j!, giving the certified tail bound v(1/j!) >= -(j-1)/(p-1) and the
exact convergence domain v(x) >= 1 (p >= 3) or v(x) >= 2 (p = 2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

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


def _inverse_factorials(descriptor: FieldDescriptor, count: int,
                        prec: int) -> Tuple[FieldElement, ...]:
    """1/j! for j < count, each known modulo p^prec (prec >= 1), with one
    modular inversion.  Write j! = p^v_j F_j, with v_j Legendre's count
    of p in j! and F_j the product of the p-free parts free_i of i <= j;
    1/j! has valuation -v_j and unit inv(F_j) modulo p^(prec + v_j).  The
    last F_j is built as a running product and inverted; walking down with
    inv(F_(j-1)) = inv(F_j) * free_j modulo p^(prec + v_(j-1)), a modulus
    that only shrinks, gives every other unit."""
    p, K = descriptor.q, descriptor.arith
    v = factorial_valuation(p, count - 1)
    m = p ** (prec + v)
    F = 1
    for j in range(2, count):
        F = F * K.strip(j)[1] % m
    inv = K.inv(F, prec + v)
    out = [None] * count
    for j in range(count - 1, -1, -1):
        out[j] = FieldElement(descriptor, -v, inv, prec)
        if j:
            t, free = K.strip(j)
            if t:
                v -= t
                m //= p ** t
            inv = inv * free % m
    return tuple(out)


def exp_series(descriptor: FieldDescriptor, target_prec: int) -> TruncatedSeries:
    """E(X) with coefficients stored at enough precision to evaluate
    modulo q^target_prec anywhere in the convergence domain.  Enough
    coefficients are stored up front that neither E nor its derivative
    builds more for an evaluation to that target."""
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

    # the derivative's tail bound sits one slope lower and its index one
    # below, so its cutoff at the domain edge needs coefficients through
    # this index of E
    stored = max(2, math.ceil((Fraction(target_prec) - intercept - slope)
                              / (slope + m)) + 1)
    coeffs = _inverse_factorials(descriptor, stored, coeff_prec)
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
    # digits of z beyond the target cannot change x modulo q^target_prec,
    # and solving at them would evaluate past the stored coefficients
    z = z.truncate(min(z.abs_precision, target_prec))
    f = exp_series(z.descriptor, target_prec)
    x0 = FieldElement.zero_to_precision(z.descriptor, z.abs_precision)
    cert = hensel_solve(HenselProblem(f, x0, z, e_min(p), target_prec))
    return cert.root.truncate(target_prec)
