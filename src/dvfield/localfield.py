"""Finite-precision exact arithmetic in Q_p and F_q((T)).

Both fields share one element shape, the FLINT padic_t model: an integer
valuation v, an integer unit u and an absolute precision N, for the value
uniformizer^v * u known modulo q^N (uniformizer^N).  The unit carries the
k = N - v relative digits and its lowest digit is nonzero.  An element
that is indistinguishable from zero at its precision carries valuation
INFINITY and unit 0.

The two kinds differ only in how the unit int holds its digits: Q_p
keeps an integer below p^k, F_q((T)) one coefficient per fixed-width bit
slot.  Each kind has a handful of small kernels on that int (`arith`),
chosen once per descriptor, so the element methods below hold no
kind-specific code; `*` and `+` are the kernels' product and sum rules
(`mul3`, `add3`) on (valuation, unit, abs_precision).  `digits` derives
the base-q digits, lowest first, from the unit; text output, JSON and
orderings read them there.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from .arith import LaurentArith, PadicArith
from .errors import DivisionByIndistinguishableZero, DomainError, PrecisionExhausted
from .valuation import INFINITY, Valuation, is_infinite, require_prime


class FieldKind(enum.Enum):
    PADIC = "padic"
    LAURENT = "laurent"


@functools.cache
def _arith(kind: FieldKind, q: int):
    return (PadicArith if kind is FieldKind.PADIC else LaurentArith)(q)


@dataclass(frozen=True)
class FieldDescriptor:
    kind: FieldKind
    q: int
    # the kind's kernels, shared by every descriptor of the same field
    arith: PadicArith | LaurentArith = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_prime(self.q)
        object.__setattr__(self, "arith", _arith(self.kind, self.q))

    @property
    def base_token(self) -> str:
        """Token used by the textual element format: the prime numeral, or T."""
        return str(self.q) if self.kind is FieldKind.PADIC else "T"


def Qp(p: int) -> FieldDescriptor:
    return FieldDescriptor(FieldKind.PADIC, p)


def laurent_field(q: int) -> FieldDescriptor:
    return FieldDescriptor(FieldKind.LAURENT, q)


@dataclass(frozen=True, slots=True)
class FieldElement:
    descriptor: FieldDescriptor
    valuation: Valuation
    unit: int
    abs_precision: int

    def __post_init__(self):
        v = self.valuation
        if v is INFINITY:
            if self.unit != 0:
                raise ValueError("an element indistinguishable from zero has unit 0")
        elif not v < self.abs_precision:
            raise ValueError(f"valuation {v} is not below the absolute precision "
                             f"{self.abs_precision}")
        elif self.unit <= 0 or not self.descriptor.arith.low(self.unit):
            raise ValueError("the unit's lowest digit must be nonzero")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero_to_precision(cls, descriptor: FieldDescriptor, prec: int) -> "FieldElement":
        return cls(descriptor, INFINITY, 0, prec)

    @classmethod
    def from_digits(cls, descriptor: FieldDescriptor, v0: int, digits: Sequence[int],
                    prec: int) -> "FieldElement":
        """sum digits[i] * uniformizer^(v0 + i) + O(uniformizer^prec), for
        base-q digits 0 <= d < q, lowest first, with v0 + len(digits) <=
        prec; the first digits may be zero."""
        window = descriptor.arith.pack(digits)
        if window == 0:
            return cls.zero_to_precision(descriptor, prec)
        t, u = descriptor.arith.strip(window)
        return cls(descriptor, v0 + t, u, prec)

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
        K = descriptor.arith
        vb, b = K.split(denominator)
        if vb is INFINITY:
            raise DivisionByIndistinguishableZero(
                "denominator is zero in the residue field")
        va, a = K.split(numerator)
        if va is INFINITY:
            return cls.zero_to_precision(descriptor, prec)
        v = va - vb
        k = prec - v
        if k <= 0:
            return cls.zero_to_precision(descriptor, prec)
        return cls(descriptor, v, K.quotient(a, b, k), prec)

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
    def digits(self) -> Tuple[int, ...]:
        """The relative_precision base-q digits of the unit, lowest first."""
        if self.valuation is INFINITY:
            return ()
        return self.descriptor.arith.digits(self.unit, self.abs_precision - self.valuation)

    @property
    def valuation_lower_bound(self) -> int:
        """Certified lower bound on the true valuation."""
        if self.is_zero_to_precision:
            return self.abs_precision
        return self.valuation

    # -- arithmetic --------------------------------------------------

    def _check_same(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError("expected a FieldElement")
        if other.descriptor is not self.descriptor and other.descriptor != self.descriptor:
            raise ValueError("mismatched field descriptors")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        return FieldElement(self.descriptor, *self.descriptor.arith.add3(
            self.valuation, self.unit, self.abs_precision,
            other.valuation, other.unit, other.abs_precision))

    def __neg__(self) -> "FieldElement":
        if self.is_zero_to_precision:
            return self
        u = self.descriptor.arith.neg(self.unit, self.abs_precision - self.valuation)
        return FieldElement(self.descriptor, self.valuation, u, self.abs_precision)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        return FieldElement(self.descriptor, *self.descriptor.arith.mul3(
            self.valuation, self.unit, self.abs_precision,
            other.valuation, other.unit, other.abs_precision))

    def inverse(self) -> "FieldElement":
        if self.is_zero_to_precision:
            raise DivisionByIndistinguishableZero(
                "divisor indistinguishable from zero at its precision")
        k = self.relative_precision
        v = -self.valuation
        return FieldElement(self.descriptor, v, self.descriptor.arith.inv(self.unit, k), v + k)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        return self * other.inverse()

    def mul_integer(self, n: int) -> "FieldElement":
        """Exact multiplication by an ordinary integer (no precision loss
        beyond the relative window)."""
        if self.is_zero_to_precision:
            return self
        K = self.descriptor.arith
        t, m = K.split(n)
        if t is INFINITY:
            return FieldElement.zero_to_precision(self.descriptor, self.abs_precision)
        k = self.relative_precision
        v = self.valuation + t
        return FieldElement(self.descriptor, v, K.mul(self.unit, K.quotient(m, 1, k), k),
                            v + k)

    def shift(self, k: int) -> "FieldElement":
        """Multiply by uniformizer^k."""
        if self.is_zero_to_precision:
            return FieldElement.zero_to_precision(self.descriptor,
                                                  self.abs_precision + k)
        return FieldElement(self.descriptor, self.valuation + k, self.unit,
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
        # the lowest digit survives, so the result is still normalized
        u = self.descriptor.arith.truncate(self.unit, prec - self.valuation)
        return FieldElement(self.descriptor, self.valuation, u, prec)

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

    def reduce_mod(self, j: int) -> int:
        """Canonical representative in [0, q^j): the image in Z/q^jZ for
        Q_p, the first j coefficients packed in base q for F_q((T))."""
        if j < 0:
            raise ValueError("j must be nonnegative")
        if j > self.abs_precision:
            raise PrecisionExhausted(f"j={j} exceeds precision {self.abs_precision}")
        if self.valuation_lower_bound < 0:
            raise DomainError("reduce_mod requires valuation >= 0")
        if self.is_zero_to_precision or self.valuation >= j:
            return 0
        return self.descriptor.arith.code(self.unit, self.valuation, j)

    def __repr__(self):
        sym = self.descriptor.base_token
        if self.is_zero_to_precision:
            return f"O({sym}^{self.abs_precision})"
        body = " + ".join(
            f"{d}*{sym}^{self.valuation + i}" for i, d in enumerate(self.digits) if d)
        return f"{body} + O({sym}^{self.abs_precision})"


def as_exact(x: FieldElement, prec: int) -> FieldElement:
    """x taken as an exact point known modulo q^prec at least: its unit
    padded with zero digits, a genuine member of the ball x stands for."""
    if prec <= x.abs_precision:
        return x
    return FieldElement(x.descriptor, x.valuation, x.unit, prec)


def invert_one_minus(x: FieldElement, prec: int) -> FieldElement:
    """(1 - x)^(-1) modulo q^prec for v(x) >= 1: one Newton inverse of the
    unit 1 - x; zero to precision prec when prec <= 0."""
    if x.valuation_lower_bound < 1:
        raise DomainError("invert_one_minus requires valuation(x) >= 1")
    if prec <= 0:
        return FieldElement.zero_to_precision(x.descriptor, prec)
    return (FieldElement.one(x.descriptor, prec) - x).inverse().truncate(prec)


def laurent_invert(f: FieldElement, prec: int) -> FieldElement:
    """Multiplicative inverse in F_q((T)); f * result = 1 + O(T^prec)."""
    if f.descriptor.kind is not FieldKind.LAURENT:
        raise DomainError("laurent_invert expects a Laurent series element")
    inv = f.inverse()
    target = prec + inv.valuation
    if inv.abs_precision < target:
        raise PrecisionExhausted("input stores too few coefficients")
    return inv.truncate(target)
