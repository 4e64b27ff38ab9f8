"""Reference model of element arithmetic on digit tuples.

An element is (valuation, digits, abs_precision): a normalized tuple of
base-q digits, lowest first and the first one nonzero, that holds the
abs_precision - valuation relative digits; valuation None and no digits
mean zero to precision.  Every operation converts digit windows to ints
(p-adic, with carries) or combines them digit by digit (Laurent, no
carries): a slow, direct model that the fuzz tests compare the library's
kernels against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Ref:
    q: int
    padic: bool
    valuation: Optional[int]
    digits: Tuple[int, ...]
    abs_precision: int

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    @property
    def lower_bound(self) -> int:
        return self.abs_precision if self.is_zero else self.valuation

    @property
    def relative_precision(self) -> int:
        return 0 if self.is_zero else self.abs_precision - self.valuation


def zero(q: int, padic: bool, prec: int) -> Ref:
    return Ref(q, padic, None, (), prec)


def _int_digits(n: int, q: int, length: int) -> list:
    out = []
    for _ in range(length):
        n, d = divmod(n, q)
        out.append(d)
    return out


def _int(digits, q: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * q + d
    return value


def normalized(q: int, padic: bool, v0: int, window, prec: int) -> Ref:
    for t, d in enumerate(window):
        if d:
            return Ref(q, padic, v0 + t, tuple(window[t:]), prec)
    return zero(q, padic, prec)


def _vp(p: int, n: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def from_rational(q: int, padic: bool, num: int, den: int, prec: int) -> Ref:
    """ValueError stands for the library's refusal of a denominator that
    vanishes in the residue field."""
    if num == 0:
        return zero(q, padic, prec)
    if padic:
        va, vb = _vp(q, num), _vp(q, den)
        v = va - vb
        k = prec - v
        if k <= 0:
            return zero(q, padic, prec)
        m = q ** k
        unit = num // q ** va * pow(den // q ** vb, -1, m) % m
        return normalized(q, padic, v, _int_digits(unit, q, k), prec)
    if den % q == 0:
        raise ValueError("denominator is zero in the residue field")
    c = num * pow(den, -1, q) % q
    if c == 0 or prec <= 0:
        return zero(q, padic, prec)
    return Ref(q, padic, 0, (c,) + (0,) * (prec - 1), prec)


def truncate(x: Ref, prec: int) -> Ref:
    if prec == x.abs_precision:
        return x
    if x.is_zero or x.valuation >= prec:
        return zero(x.q, x.padic, prec)
    return normalized(x.q, x.padic, x.valuation, list(x.digits[: prec - x.valuation]), prec)


def add(a: Ref, b: Ref) -> Ref:
    q = a.q
    N = min(a.abs_precision, b.abs_precision)
    if a.is_zero:
        return truncate(b, N)
    if b.is_zero:
        return truncate(a, N)
    v0 = min(a.valuation, b.valuation)
    k = N - v0
    if k <= 0:
        return zero(q, a.padic, N)
    if a.padic:
        total = (_int(a.digits, q) * q ** (a.valuation - v0)
                 + _int(b.digits, q) * q ** (b.valuation - v0)) % q ** k
        window = _int_digits(total, q, k)
    else:
        window = [0] * k
        for elem in (a, b):
            off = elem.valuation - v0
            for i, d in enumerate(elem.digits):
                if off + i < k:
                    window[off + i] = (window[off + i] + d) % q
    return normalized(q, a.padic, v0, window, N)


def neg(x: Ref) -> Ref:
    if x.is_zero:
        return x
    q, k = x.q, len(x.digits)
    if x.padic:
        window = _int_digits(-_int(x.digits, q) % q ** k, q, k)
    else:
        window = [-d % q for d in x.digits]
    return Ref(q, x.padic, x.valuation, tuple(window), x.abs_precision)


def sub(a: Ref, b: Ref) -> Ref:
    return add(a, neg(b))


def mul(a: Ref, b: Ref) -> Ref:
    q = a.q
    if a.is_zero or b.is_zero:
        if a.is_zero and b.is_zero:
            prec = a.abs_precision + b.abs_precision
        elif a.is_zero:
            prec = a.abs_precision + b.lower_bound
        else:
            prec = b.abs_precision + a.valuation
        return zero(q, a.padic, prec)
    v = a.valuation + b.valuation
    k = min(a.relative_precision, b.relative_precision)
    if a.padic:
        window = _int_digits(_int(a.digits, q) * _int(b.digits, q) % q ** k, q, k)
    else:
        window = [0] * k
        for i, x in enumerate(a.digits[:k]):
            for j, y in enumerate(b.digits[: k - i]):
                window[i + j] = (window[i + j] + x * y) % q
    return normalized(q, a.padic, v, window, v + k)


def inverse(x: Ref) -> Ref:
    """ZeroDivisionError stands for the library's refusal of a divisor
    indistinguishable from zero."""
    if x.is_zero:
        raise ZeroDivisionError
    q, k = x.q, x.relative_precision
    if x.padic:
        window = _int_digits(pow(_int(x.digits, q), -1, q ** k), q, k)
    else:
        inv0 = pow(x.digits[0], -1, q)
        window = [inv0] + [0] * (k - 1)
        for n in range(1, k):
            acc = sum(x.digits[i] * window[n - i] for i in range(1, min(n, len(x.digits) - 1) + 1))
            window[n] = -inv0 * acc % q
    return Ref(q, x.padic, -x.valuation, tuple(window), -x.valuation + k)


def mul_integer(x: Ref, n: int) -> Ref:
    if x.is_zero:
        return x
    q = x.q
    if n == 0:
        return zero(q, x.padic, x.abs_precision)
    if x.padic:
        t, m = _vp(q, n), n
        m //= q ** t
        k = len(x.digits)
        window = _int_digits(_int(x.digits, q) * m % q ** k, q, k)
        v = x.valuation + t
        return normalized(q, True, v, window, v + k)
    c = n % q
    if c == 0:
        return zero(q, False, x.abs_precision)
    return Ref(q, False, x.valuation, tuple(d * c % q for d in x.digits), x.abs_precision)


def shift(x: Ref, k: int) -> Ref:
    if x.is_zero:
        return zero(x.q, x.padic, x.abs_precision + k)
    return Ref(x.q, x.padic, x.valuation + k, x.digits, x.abs_precision + k)


def reduce_mod(x: Ref, j: int) -> int:
    """For 0 <= j <= abs_precision and a lower bound >= 0."""
    if x.is_zero:
        return 0
    return sum(d * x.q ** (x.valuation + i)
               for i, d in enumerate(x.digits) if x.valuation + i < j)
