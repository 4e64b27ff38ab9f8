"""Finite-precision exact arithmetic in Q_p and F_q((T)).

Both fields share one element shape: an integer valuation, a normalized
sequence of base-q digits (leading digit nonzero), and an absolute
precision N meaning the element is known modulo q^N (uniformizer^N).
An element that is indistinguishable from zero at its precision carries
valuation INFINITY and no digits.

The two kinds differ only in how digit windows combine: p-adic windows
are integers modulo p^k (addition carries), Laurent windows are
coefficient vectors over F_q (no carries).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import DivisionByIndistinguishableZero, DomainError, PrecisionExhausted
from .valuation import INFINITY, Magnitude, Valuation, is_infinite, require_prime, vp


class FieldKind(enum.Enum):
    PADIC = "padic"
    LAURENT = "laurent"


@dataclass(frozen=True)
class FieldDescriptor:
    kind: FieldKind
    q: int
    rho1_exponent: int = 1

    def __post_init__(self):
        require_prime(self.q)
        if self.rho1_exponent < 1:
            raise ValueError("rho1_exponent must be positive")

    @property
    def base_token(self) -> str:
        """Token used by the textual element format: the prime numeral, or T."""
        return str(self.q) if self.kind is FieldKind.PADIC else "T"


def Qp(p: int, rho1_exponent: int = 1) -> FieldDescriptor:
    return FieldDescriptor(FieldKind.PADIC, p, rho1_exponent)


def laurent_field(q: int, rho1_exponent: int = 1) -> FieldDescriptor:
    return FieldDescriptor(FieldKind.LAURENT, q, rho1_exponent)


def _int_digits(n: int, q: int, length: int) -> list:
    out = []
    for _ in range(length):
        n, d = divmod(n, q)
        out.append(d)
    return out


@dataclass(frozen=True)
class FieldElement:
    descriptor: FieldDescriptor
    valuation: Valuation
    digits: Tuple[int, ...]
    abs_precision: int

    # -- constructors ------------------------------------------------

    @classmethod
    def zero_to_precision(cls, descriptor: FieldDescriptor, prec: int) -> "FieldElement":
        return cls(descriptor, INFINITY, (), prec)

    @classmethod
    def _normalized(cls, descriptor, v0: int, window: list, prec: int) -> "FieldElement":
        for t, d in enumerate(window):
            if d:
                return cls(descriptor, v0 + t, tuple(window[t:]), prec)
        return cls.zero_to_precision(descriptor, prec)

    @classmethod
    def from_rational(cls, descriptor: FieldDescriptor, numerator: int,
                      denominator: int = 1, prec: int = 16) -> "FieldElement":
        """The image of numerator/denominator, known modulo q^prec.

        For Q_p any nonzero denominator is allowed (the valuation may be
        negative); for F_q((T)) integers are residue-field constants, so
        the denominator must be invertible modulo q.
        """
        if denominator == 0:
            raise ZeroDivisionError("zero denominator")
        if numerator == 0:
            return cls.zero_to_precision(descriptor, prec)
        q = descriptor.q
        if descriptor.kind is FieldKind.PADIC:
            va = vp(q, numerator)
            vb = vp(q, denominator)
            v = va - vb
            k = prec - v
            if k <= 0:
                return cls.zero_to_precision(descriptor, prec)
            m = q ** k
            a = numerator // q ** va
            b = denominator // q ** vb
            unit = a * pow(b, -1, m) % m
            return cls._normalized(descriptor, v, _int_digits(unit, q, k), prec)
        if denominator % q == 0:
            raise DivisionByIndistinguishableZero(
                "denominator is zero in the residue field")
        c = numerator * pow(denominator, -1, q) % q
        if c == 0 or prec <= 0:
            return cls.zero_to_precision(descriptor, prec)
        return cls(descriptor, 0, (c,) + (0,) * (prec - 1), prec)

    @classmethod
    def one(cls, descriptor: FieldDescriptor, prec: int) -> "FieldElement":
        return cls.from_rational(descriptor, 1, 1, prec)

    # -- basic queries -----------------------------------------------

    @property
    def is_zero_to_precision(self) -> bool:
        return is_infinite(self.valuation)

    @property
    def relative_precision(self) -> int:
        if self.is_zero_to_precision:
            return 0
        return self.abs_precision - self.valuation

    @property
    def valuation_lower_bound(self) -> int:
        """Certified lower bound on the true valuation."""
        if self.is_zero_to_precision:
            return self.abs_precision
        return self.valuation

    def magnitude(self) -> Magnitude:
        if self.is_zero_to_precision:
            raise PrecisionExhausted(
                "magnitude undetermined: element indistinguishable from zero")
        return Magnitude(self.descriptor.q, self.valuation)

    def _unit_int(self) -> int:
        q = self.descriptor.q
        value = 0
        for d in reversed(self.digits):
            value = value * q + d
        return value

    # -- arithmetic --------------------------------------------------

    def _check_same(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError("expected a FieldElement")
        if other.descriptor != self.descriptor:
            raise ValueError("mismatched field descriptors")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        N = min(self.abs_precision, other.abs_precision)
        if self.is_zero_to_precision:
            return other.truncate(N)
        if other.is_zero_to_precision:
            return self.truncate(N)
        q = self.descriptor.q
        v0 = min(self.valuation, other.valuation)
        k = N - v0
        if k <= 0:
            return FieldElement.zero_to_precision(self.descriptor, N)
        if self.descriptor.kind is FieldKind.PADIC:
            total = (self._unit_int() * q ** (self.valuation - v0)
                     + other._unit_int() * q ** (other.valuation - v0)) % q ** k
            window = _int_digits(total, q, k)
        else:
            window = [0] * k
            for elem in (self, other):
                off = elem.valuation - v0
                for i, d in enumerate(elem.digits):
                    if off + i < k:
                        window[off + i] = (window[off + i] + d) % q
        return FieldElement._normalized(self.descriptor, v0, window, N)

    def __neg__(self) -> "FieldElement":
        if self.is_zero_to_precision:
            return self
        q = self.descriptor.q
        if self.descriptor.kind is FieldKind.PADIC:
            k = len(self.digits)
            window = _int_digits((-self._unit_int()) % q ** k, q, k)
        else:
            window = [(-d) % q for d in self.digits]
        return FieldElement(self.descriptor, self.valuation, tuple(window),
                            self.abs_precision)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        if self.is_zero_to_precision or other.is_zero_to_precision:
            prec = (self.abs_precision + other.valuation_lower_bound
                    if self.is_zero_to_precision
                    else other.abs_precision + self.valuation)
            if self.is_zero_to_precision and other.is_zero_to_precision:
                prec = self.abs_precision + other.abs_precision
            return FieldElement.zero_to_precision(self.descriptor, prec)
        q = self.descriptor.q
        v = self.valuation + other.valuation
        k = min(self.relative_precision, other.relative_precision)
        if self.descriptor.kind is FieldKind.PADIC:
            window = _int_digits(self._unit_int() * other._unit_int() % q ** k, q, k)
        else:
            window = [0] * k
            for i, a in enumerate(self.digits[:k]):
                if a == 0:
                    continue
                for j, b in enumerate(other.digits[: k - i]):
                    window[i + j] = (window[i + j] + a * b) % q
        return FieldElement._normalized(self.descriptor, v, window, v + k)

    def inverse(self) -> "FieldElement":
        if self.is_zero_to_precision:
            raise DivisionByIndistinguishableZero(
                "divisor indistinguishable from zero at its precision")
        q = self.descriptor.q
        k = self.relative_precision
        if self.descriptor.kind is FieldKind.PADIC:
            window = _int_digits(pow(self._unit_int(), -1, q ** k), q, k)
        else:
            inv0 = pow(self.digits[0], -1, q)
            window = [inv0] + [0] * (k - 1)
            for n in range(1, k):
                acc = 0
                for i in range(1, min(n, len(self.digits) - 1) + 1):
                    acc += self.digits[i] * window[n - i]
                window[n] = (-inv0 * acc) % q
        v = -self.valuation
        return FieldElement(self.descriptor, v, tuple(window), v + k)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        if other.is_zero_to_precision:
            raise DivisionByIndistinguishableZero(
                "divisor indistinguishable from zero at its precision")
        if self.is_zero_to_precision:
            return FieldElement.zero_to_precision(
                self.descriptor, self.abs_precision - other.valuation)
        return self * other.inverse()

    def mul_integer(self, n: int) -> "FieldElement":
        """Exact multiplication by an ordinary integer (no precision loss
        beyond the relative window)."""
        if self.is_zero_to_precision:
            return self
        q = self.descriptor.q
        if n == 0:
            return FieldElement.zero_to_precision(self.descriptor, self.abs_precision)
        if self.descriptor.kind is FieldKind.PADIC:
            t = 0
            m = n
            while m % q == 0:
                m //= q
                t += 1
            k = len(self.digits)
            window = _int_digits(self._unit_int() * m % q ** k, q, k)
            v = self.valuation + t
            return FieldElement._normalized(self.descriptor, v, window, v + k)
        c = n % q
        if c == 0:
            return FieldElement.zero_to_precision(self.descriptor, self.abs_precision)
        window = [d * c % q for d in self.digits]
        return FieldElement(self.descriptor, self.valuation, tuple(window),
                            self.abs_precision)

    def shift(self, k: int) -> "FieldElement":
        """Multiply by uniformizer^k."""
        if self.is_zero_to_precision:
            return FieldElement.zero_to_precision(self.descriptor,
                                                  self.abs_precision + k)
        return FieldElement(self.descriptor, self.valuation + k, self.digits,
                            self.abs_precision + k)

    # -- precision management ----------------------------------------

    def truncate(self, prec: int) -> "FieldElement":
        if prec > self.abs_precision:
            raise PrecisionExhausted(
                f"cannot raise precision from {self.abs_precision} to {prec}")
        if prec == self.abs_precision:
            return self
        if self.is_zero_to_precision or self.valuation >= prec:
            return FieldElement.zero_to_precision(self.descriptor, prec)
        window = list(self.digits[: prec - self.valuation])
        return FieldElement._normalized(self.descriptor, self.valuation, window, prec)

    def agrees_with(self, other: "FieldElement", prec: int) -> bool:
        """Whether v(self - other) >= prec, certified."""
        diff = self - other
        if not diff.is_zero_to_precision:
            return diff.valuation >= prec
        if diff.abs_precision >= prec:
            return True
        raise PrecisionExhausted(
            "difference indistinguishable from zero below the requested precision")

    # -- residue structure -------------------------------------------

    def residue(self) -> int:
        """Image in the residue field Z/qZ (p-adic) or F_q (Laurent)."""
        if self.valuation_lower_bound < 0:
            raise DomainError("residue requires valuation >= 0")
        if self.is_zero_to_precision or self.valuation > 0:
            return 0
        return self.digits[0]

    def reduce_mod(self, j: int) -> int:
        """Canonical representative in [0, q^j): the image in Z/q^jZ for
        Q_p, the first j coefficients packed in base q for F_q((T))."""
        if j < 0:
            raise ValueError("j must be nonnegative")
        if j > self.abs_precision:
            raise PrecisionExhausted(f"j={j} exceeds precision {self.abs_precision}")
        if self.valuation_lower_bound < 0:
            raise DomainError("reduce_mod requires valuation >= 0")
        if self.is_zero_to_precision:
            return 0
        q = self.descriptor.q
        value = 0
        for i, d in enumerate(self.digits):
            pos = self.valuation + i
            if pos >= j:
                break
            value += d * q ** pos
        return value

    def __repr__(self):
        sym = self.descriptor.base_token
        if self.is_zero_to_precision:
            return f"O({sym}^{self.abs_precision})"
        body = " + ".join(
            f"{d}*{sym}^{self.valuation + i}" for i, d in enumerate(self.digits) if d)
        return f"{body} + O({sym}^{self.abs_precision})"


def invert_one_minus(x: FieldElement, prec: int) -> FieldElement:
    """(1 - x)^(-1) for v(x) >= 1, by summing the geometric series until
    the next term has valuation >= prec."""
    if x.valuation_lower_bound < 1:
        raise DomainError("invert_one_minus requires valuation(x) >= 1")
    one = FieldElement.one(x.descriptor, prec)
    total = one
    term = one
    while term.valuation_lower_bound < prec:
        term = (term * x).truncate(min(prec, term.abs_precision + x.valuation_lower_bound))
        total = total + term
    return total.truncate(prec)


def laurent_invert(f: FieldElement, prec: int) -> FieldElement:
    """Multiplicative inverse in F_q((T)); f * result = 1 + O(T^prec)."""
    if f.descriptor.kind is not FieldKind.LAURENT:
        raise DomainError("laurent_invert expects a Laurent series element")
    if f.is_zero_to_precision:
        raise DivisionByIndistinguishableZero(
            "input indistinguishable from zero at its precision")
    inv = f.inverse()
    target = prec + inv.valuation
    if inv.abs_precision < target:
        raise PrecisionExhausted("input stores too few coefficients")
    return inv.truncate(target)
