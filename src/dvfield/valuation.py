"""Integer valuation arithmetic: INFINITY, primality, and the p-adic
valuations of a rational and of j!.

Every absolute value in this library is carried as its valuation v, the
exponent of |x| = q^(-v), with INFINITY for zero, never as a float: for a
discretely valued field the nonzero absolute values are exactly the
integer powers of one fixed ratio, so reversed integer comparison
reproduces the real-number comparison exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class _Infinity:
    """The valuation of zero.  Compares greater than every integer and
    absorbs addition; kept as an explicit singleton so saturation is
    auditable rather than hidden in a sentinel integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("dvfield.INFINITY")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("INFINITY - INFINITY is undefined")
        return self


INFINITY = _Infinity()

Valuation = Union[int, _Infinity]


def is_infinite(v: Valuation) -> bool:
    return v is INFINITY


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _vp_int(p: int, n: int) -> int:
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(p: int, x) -> Valuation:
    """p-adic valuation of a rational: the j with x = p^j * a/b, p dividing
    neither a nor b.  INFINITY iff x = 0."""
    require_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _vp_int(p, x.numerator) - _vp_int(p, x.denominator)


def factorial_valuation(p: int, j: int) -> int:
    """Number of factors of p in j!, as the finite sum of floor(j/p^l)."""
    require_prime(p)
    if j < 0:
        raise ValueError("j must be nonnegative")
    total = 0
    power = p
    while power <= j:
        total += j // power
        power *= p
    return total
