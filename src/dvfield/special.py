"""The exponential E(X) = sum X^j / j! over Q_p and its inverse.

Coefficient valuations come from the Legendre count of prime factors in
j!, giving the certified tail bound v(1/j!) >= -(j-1)/(p-1) and the
exact convergence domain v(x) >= 1 (p >= 3) or v(x) >= 2 (p = 2).

E is evaluated in closed form, not from a coefficient table: on its
domain E is an isometry, |E(x) - E(y)| = |x - y|, so E(x) is known to
exactly the digits of x, and `_exp_mod` sums it on exact integers by
bit-burst binary splitting (Brent 1976).  `exp_eval` calls that kernel
directly.  `exp_series` is E as a `TruncatedSeries` for the solver and
the bounds: its `eval` is the same kernel, its derivative is itself,
and it stores only the few 1/j! that the suprema and Strassmann bounds
read.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _resolve
from .errors import DomainError
from .localfield import FieldDescriptor, FieldElement, FieldKind
from .series import TailProfile, TruncatedSeries
from .valuation import INFINITY, factorial_valuation

# `log_solve` imports the solver when it first runs, so `exp` never
# compiles it; `dvfield.special.<name>` still reaches every package name.
__getattr__ = _resolve

# terms summed by one loop at the leaves of the binary splitting
_LEAF_TERMS = 32
# coefficients exp_series stores (see there)
_STORED = 5


def e_min(p: int) -> int:
    """Least valuation admitted by the exponential's domain |x| < p^(-1/(p-1))."""
    return 2 if p == 2 else 1


def _require_padic(descriptor: FieldDescriptor) -> None:
    if descriptor.kind is not FieldKind.PADIC:
        raise DomainError(
            "the exponential needs characteristic zero: factorials vanish "
            "in the residue characteristic")


def _split(x: int, a: int, b: int, M: int) -> tuple[int, int, int]:
    """(P, Q, T) modulo M for the terms j in [a, b), 1 <= a < b: P =
    x^(b-a), Q = a (a+1) ... (b-1) and T with T / Q = sum_{a <= j < b}
    x^(j-a+1) / (a (a+1) ... j).  Halves merge as P = P1 P2, Q = Q1 Q2,
    T = T1 Q2 + P1 T2: ring operations only, so every product can be
    reduced modulo M."""
    if b - a <= _LEAF_TERMS:
        # from the top: [j, b) is x/j (1 + [j+1, b))
        Q, T = 1, 0
        for j in range(b - 1, a - 1, -1):
            T = x * (Q + T)
            Q *= j
        return x ** (b - a), Q, T
    mid = (a + b) // 2
    P1, Q1, T1 = _split(x, a, mid, M)
    P2, Q2, T2 = _split(x, mid, b, M)
    return P1 * P2 % M, Q1 * Q2 % M, (T1 * Q2 + P1 * T2) % M


def _exp_mod(K, x: int, k: int) -> int:
    """E(x) modulo p^k, k >= 1, for an integer x with v(x) >= e_min(p).

    Bit-burst: the digits of x in [2^i s, 2^(i+1) s), s = e_min(p), form
    the chunk x_i, and E(x) = prod E(x_i) (digits from k on change E(x)
    only from k on).  The chunk of valuation l >= 2^i s is summed over j
    < J, the first index where the Legendre minorant j l - (j-1)/(p-1)
    of v(x_i^j / j!) reaches k, so every dropped term vanishes modulo
    p^k.  With Q = (J-1)! = p^t Q' and t from Legendre, T and Q are
    needed only modulo p^(k+t): E(x_i) = (Q' + T/p^t) / Q' modulo p^k.
    The chunk quotients share one inversion at the end."""
    p = K.q
    pk = K.power(k)
    x %= pk
    num = den = 1
    lo = e_min(p)
    while x:
        hi = min(2 * lo, k)
        chunk = x % K.power(hi)
        x -= chunk
        if chunk:
            # j (lo (p-1) - 1) + 1 >= k (p-1) for every j >= J; lo < k,
            # since p^lo divides chunk < p^k, so J >= 2
            J = -(-(k * (p - 1) - 1) // (lo * (p - 1) - 1))
            pt = p ** factorial_valuation(p, J - 1)
            _, Q, T = _split(chunk, 1, J, pk * pt)
            num = num * ((Q + T) // pt) % pk
            den = den * (Q // pt) % pk
        lo = hi
    return num * K.inv(den, k) % pk


def _exp(x: FieldElement, target_prec: int) -> FieldElement:
    """E(x) modulo q^k, k = min(target_prec, x.abs_precision), for x in
    the domain; zero to precision k when k <= 0."""
    F = x.descriptor
    k = min(target_prec, x.abs_precision)
    if k <= 0:
        return FieldElement.zero_to_precision(F, k)
    X = 0 if x.valuation is INFINITY else x.unit * F.arith.power(x.valuation)
    return FieldElement(F, 0, _exp_mod(F.arith, X, k), k)


class _Exponential(TruncatedSeries):
    """E as a series: the stored 1/j! and the Legendre tail give the
    suprema and the Strassmann bounds, `eval` is the closed-form kernel,
    and E' = E coefficient for coefficient, so the stored coefficients
    and the tail hold for the derivative too."""

    def eval(self, x: FieldElement, target_prec: int) -> FieldElement:
        """E(x) modulo q^min(target_prec, x.abs_precision)."""
        self._require_argument(x)
        return _exp(x, target_prec)

    def derivative(self) -> "TruncatedSeries":
        return self


def exp_series(descriptor: FieldDescriptor, target_prec: int) -> TruncatedSeries:
    """E(X) with coefficients known modulo q^working_precision, which
    carries a Horner evaluation to q^target_prec anywhere in the domain:
    copies of E (`materialized`, `tail:exp` literals) evaluate that way.

    At most a_0 .. a_(2K-2) are stored, K = 3.  For k <= K (the solver
    reads M_1 and M_2) and every admissible radius exponent m, the tail
    bound at j = 2K - 1, m (j - k) - (j - 1)/(p - 1), is at least 0 >=
    v(a_k).  So `sup_exponent(m, k)` and `strassmann_bound` from index 0
    or 1 get from these the result a longer table gives.  The factory
    builds them and every further coefficient."""
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

    # the count a Horner evaluation of E' to the target reads at the domain
    # edge, which is less than _STORED only for the smallest targets
    count = max(2, math.ceil((Fraction(target_prec) - intercept - slope)
                             / (slope + m)) + 1)
    coeffs = tuple(factory(j) for j in range(min(count, _STORED)))
    tail = TailProfile(start=1, slope=slope, intercept=intercept)
    return _Exponential(descriptor, coeffs, tail, factory)


def exp_eval(x: FieldElement, target_prec: int) -> FieldElement:
    """E(x) modulo q^target_prec; satisfies |E(x)| = 1 and |E(x) - 1| = |x|.
    Raises PrecisionExhausted when x is known to fewer digits."""
    _require_padic(x.descriptor)
    if x.valuation_lower_bound < e_min(x.descriptor.q):
        raise DomainError(
            f"exponential diverges: need valuation >= {e_min(x.descriptor.q)}")
    return _exp(x, target_prec).truncate(target_prec)


def log_solve(z: FieldElement, target_prec: int) -> FieldElement:
    """The unique x in the convergence domain with E(x) = z modulo
    q^target_prec, found by solving E(x) = z from x0 = 0 where E(0) = 1
    and E'(0) = 1."""
    from .rootfind import HenselProblem, hensel_solve
    _require_padic(z.descriptor)
    p = z.descriptor.q
    one = FieldElement.one(z.descriptor, z.abs_precision)
    if (z - one).valuation_lower_bound < e_min(p):
        raise DomainError(
            f"logarithm undefined: need valuation(z - 1) >= {e_min(p)}")
    if target_prec <= e_min(p):
        # log is an isometry on the domain: v(log z) = v(z - 1) >= e_min
        return FieldElement.zero_to_precision(z.descriptor, target_prec)
    # digits of z beyond the target cannot change x modulo q^target_prec
    z = z.truncate(min(z.abs_precision, target_prec))
    f = exp_series(z.descriptor, target_prec)
    x0 = FieldElement.zero_to_precision(z.descriptor, z.abs_precision)
    cert = hensel_solve(HenselProblem(f, x0, z, e_min(p), target_prec))
    return cert.root.truncate(target_prec)
