"""The unit kernels of the two field kinds.

An element of Q_p or F_q((T)) stores its unit, the digits from its
valuation up to its absolute precision, as one Python int.  The kernels
here are the only code that knows how that int holds the digits:

- PadicArith: the unit is an integer in [0, p^k) for k digits, and every
  kernel is one big-int operation modulo p^k (addition carries), except
  inversion, which above a few machine words is Newton iteration on the
  product.
- LaurentArith: coefficient i sits in slot i, a fixed number of bytes
  wide for each q (no carries between slots).  Addition and negation act
  on every slot at once and reduce with masks; multiplication is one
  Kronecker big-int product on widened slots, unpacked modulo q
  (Harvey, arXiv:0712.4046); inversion is Newton iteration on that
  product.

Every kernel takes units and digit counts and returns a unit int, or
plain ints, never an element.  On top of them, `mul3` and `add3` state
the two precision rules of element arithmetic once, on (valuation, unit,
abs_precision) triples: a product is known to the smaller relative
precision, a sum to the smaller absolute precision.  FieldElement's `*`
and `+` and series evaluation's Horner loop (`series._horner`) all go
through them.
"""

from __future__ import annotations

import functools
import sys
from typing import List, Sequence, Tuple

from .valuation import INFINITY, Valuation

# how many powers p^k each PadicArith keeps: a prime sees 40-51 exponents
# in padic-exp-log and 151-186 in roots-simple, but few at one time
_POWERS_KEPT = 32


class _Rules:
    """The product and sum rules on (valuation, unit, abs_precision)
    triples, through the kind's kernels; a triple with valuation INFINITY
    and unit 0 is zero to its precision."""

    def mul3(self, va: Valuation, ua: int, Na: int,
             vb: Valuation, ub: int, Nb: int) -> Tuple[Valuation, int, int]:
        """The product, known to the smaller relative precision; a zero
        factor gives zero at the sum of the valuation lower bounds."""
        if va is INFINITY or vb is INFINITY:
            return INFINITY, 0, (Na if va is INFINITY else va) + (Nb if vb is INFINITY else vb)
        k = Na - va
        if Nb - vb < k:
            k = Nb - vb
        v = va + vb
        # a product of units is a unit: nothing to normalize
        return v, self.mul(ua, ub, k), v + k

    def add3(self, va: Valuation, ua: int, Na: int,
             vb: Valuation, ub: int, Nb: int) -> Tuple[Valuation, int, int]:
        """The sum, known to the smaller absolute precision n (the
        ultrametric inequality); digits that cancel are stripped."""
        n = Na if Na < Nb else Nb
        if va is not INFINITY and vb is not INFINITY:
            # both valuations lie below their precisions, so v0 < n
            v0 = va if va < vb else vb
            w = self.add(ua, va - v0, ub, vb - v0, n - v0)
            if not w:
                return INFINITY, 0, n
            t, u = self.strip(w)
            return v0 + t, u, n
        # a zero summand truncates the other (truncating a unit to its own
        # digit count keeps it)
        if va is INFINITY:
            va, ua = vb, ub
        if va is INFINITY or va >= n:
            return INFINITY, 0, n
        return va, self.truncate(ua, n - va), n


class PadicArith(_Rules):
    """Units of Q_p as integers in [0, p^k)."""

    def __init__(self, p: int):
        self.q = p
        # power(k) is p^k, from a cache of the exponents in use
        self.power = functools.lru_cache(maxsize=_POWERS_KEPT)(p.__pow__)
        # digits below which pow's extended Euclid beats Newton iteration:
        # about 40 bits, one or two CPython limbs (measured for p = 2..7)
        self._newton_from = max(1, 40 // p.bit_length())

    def strip(self, u: int) -> Tuple[int, int]:
        """(t, u / p^t) for the largest t with p^t dividing u != 0, in
        O(log t) big-int divisions, where dividing by p once per digit
        is quadratic in t."""
        p = self.q
        if u % p:
            return 0, u
        if p == 2:
            t = (u & -u).bit_length() - 1
            return t, u >> t
        # divide by p, p^2, p^4, ... while each divides; then less than
        # the last square m divides the rest, and its bits come from the top
        t, n, m, squares = 0, 1, p, []
        while not u % m:
            u //= m
            t += n
            squares.append(m)
            m *= m
            n += n
        while squares:
            m = squares.pop()
            n >>= 1
            if not u % m:
                u //= m
                t += n
        return t, u

    def split(self, n: int) -> Tuple[Valuation, int]:
        """The integer n as (valuation, integer unit part)."""
        return (INFINITY, 0) if n == 0 else self.strip(n)

    def quotient(self, a: int, b: int, k: int) -> int:
        """The unit a/b to k digits, for integers a, b prime to p."""
        if b != 1:      # mul_integer passes b = 1, which needs no inverse
            a *= self.inv(b, k)
        return a % self.power(k)

    def add(self, ua: int, sa: int, ub: int, sb: int, k: int) -> int:
        """ua * p^sa + ub * p^sb modulo p^k."""
        if sa:
            ua *= self.power(sa)
        if sb:
            ub *= self.power(sb)
        return (ua + ub) % self.power(k)

    def neg(self, u: int, k: int) -> int:
        return -u % self.power(k)

    def mul(self, ua: int, ub: int, k: int) -> int:
        return ua * ub % self.power(k)

    def inv(self, u: int, k: int) -> int:
        """1/u modulo p^k.  Above a few machine words, Newton iteration
        g <- g (2 - u g) from the inverse to ceil(k/2) digits: two
        products per doubling, where pow's extended Euclid is quadratic
        in k.  The inverse modulo p^k is unique, so both give the same
        int."""
        m = self.power(k)
        if k <= self._newton_from:
            return pow(u, -1, m)
        g = self.inv(u, (k + 1) // 2)
        return g * (2 - u % m * g) % m

    def truncate(self, u: int, k: int) -> int:
        return u % self.power(k)

    def low(self, u: int) -> int:
        return u % self.q

    def digits(self, u: int, k: int) -> Tuple[int, ...]:
        out = []
        for _ in range(k):
            u, d = divmod(u, self.q)
            out.append(d)
        return tuple(out)

    def pack(self, digits: Sequence[int]) -> int:
        u = 0
        for d in reversed(digits):
            u = u * self.q + d
        return u

    def code(self, u: int, v: int, j: int) -> int:
        """The value modulo p^j, for 0 <= v < j."""
        return u % self.power(j - v) * self.power(v)


def _slot_bytes(nbits: int) -> int:
    """Bytes for a slot of nbits bits, rounded up to 1, 2, 4 or 8 where
    that suffices, the sizes memoryview reads directly."""
    n = (nbits + 7) // 8
    return next((w for w in (1, 2, 4, 8) if w >= n), n)


# memoryview formats of unsigned ints by size in bytes; a packed int is
# little-endian, so slots wider than a byte are read this way only where
# that is the native order
_FORMATS = {1: "B"}
if sys.byteorder == "little":
    _FORMATS.update({memoryview(bytes(8)).cast(c).itemsize: c for c in "HILQ"})


def _unpack(raw: bytes, width: int) -> List[int]:
    """The little-endian unsigned ints of `width` bytes each in raw."""
    fmt = _FORMATS.get(width)
    if fmt is not None:
        return memoryview(raw).cast(fmt).tolist()
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def _pack(values: Sequence[int], width: int) -> bytes:
    if width == 1:
        return bytes(values)
    return b"".join(v.to_bytes(width, "little") for v in values)


class LaurentArith(_Rules):
    """Units of F_q((T)): coefficient i in slot i, `width` bytes each.

    A slot keeps its top bit free, so the sum of two coefficients fits in
    it and adding 2^(bits-1) - q sets that bit exactly where the sum is q
    or more; every slot is then reduced at once by subtracting q there."""

    def __init__(self, q: int):
        self.q = q
        self.width = _slot_bytes(q.bit_length() + 1)
        self.bits = 8 * self.width
        self.slot = (1 << self.bits) - 1
        self._mask_cache = {}

    def _low(self, k: int) -> int:
        return (1 << (self.bits * k)) - 1

    def _masks(self, k: int) -> Tuple[int, int, int]:
        """2^(bits-1) - q, 2^(bits-1) and q, each repeated in at least k
        slots: one set per power of two, as slots past those in use only
        ever hold zeros and reduce to zeros."""
        n = 1 << (k - 1).bit_length()
        m = self._mask_cache.get(n)
        if m is None:
            ones = int.from_bytes(b"\x01".ljust(self.width, b"\x00") * n, "little")
            half = 1 << (self.bits - 1)
            m = self._mask_cache[n] = ((half - self.q) * ones, half * ones, self.q * ones)
        return m

    def _reduce(self, s: int, k: int) -> int:
        """Every slot of s, each in [0, 2q - 2], reduced modulo q."""
        offset, top, _ = self._masks(k)
        return s - (((s + offset) & top) >> (self.bits - 1)) * self.q

    def _window(self, u: int, s: int, k: int) -> int:
        """u * T^s modulo T^k."""
        if s >= k:
            return 0
        return (u & self._low(k - s)) << (self.bits * s)

    def _coeffs(self, u: int, k: int) -> List[int]:
        return _unpack((u & self._low(k)).to_bytes(k * self.width, "little"), self.width)

    def _from_coeffs(self, coeffs: Sequence[int]) -> int:
        return int.from_bytes(_pack(coeffs, self.width), "little")

    def strip(self, u: int) -> Tuple[int, int]:
        if u & self.slot:
            return 0, u
        t = ((u & -u).bit_length() - 1) // self.bits
        return t, u >> (self.bits * t)

    def split(self, n: int) -> Tuple[Valuation, int]:
        c = n % self.q
        return (0, c) if c else (INFINITY, 0)

    def quotient(self, a: int, b: int, k: int) -> int:
        return a * pow(b, -1, self.q) % self.q

    def add(self, ua: int, sa: int, ub: int, sb: int, k: int) -> int:
        return self._reduce(self._window(ua, sa, k) + self._window(ub, sb, k), k)

    def neg(self, u: int, k: int) -> int:
        # slots from k on become q and reduce back to zero
        return self._reduce(self._masks(k)[2] - u, k)

    def mul(self, ua: int, ub: int, k: int) -> int:
        """Low k coefficients of the product: one Kronecker big-int
        product with slots wide enough for every coefficient sum."""
        width = _slot_bytes(((self.q - 1) ** 2 * k).bit_length())
        a, b = self._widen(ua, k, width), self._widen(ub, k, width)
        raw = (a * b).to_bytes(width * (2 * k - 1), "little")[:width * k]
        q = self.q
        return self._from_coeffs([c % q for c in _unpack(raw, width)])

    def _widen(self, u: int, k: int, width: int) -> int:
        """The low k coefficients of u in slots of `width` bytes."""
        u &= self._low(k)
        if width == self.width:
            return u
        raw = u.to_bytes(k * self.width, "little")
        buf = bytearray(k * width)
        for j in range(self.width):
            buf[j::width] = raw[j::self.width]
        return int.from_bytes(buf, "little")

    def inv(self, u: int, k: int) -> int:
        """Newton iteration g <- g (2 - u g), doubling the known
        coefficients of 1/u at every step."""
        q = self.q
        g = pow(u & self.slot, -1, q)
        n = 1
        while n < k:
            n = min(2 * n, k)
            e = self.add(self.neg(self.mul(u, g, n), n), 0, 2 % q, 0, n)
            g = self.mul(g, e, n)
        return g

    def truncate(self, u: int, k: int) -> int:
        return u & self._low(k)

    def low(self, u: int) -> int:
        return u & self.slot

    def digits(self, u: int, k: int) -> Tuple[int, ...]:
        return tuple(self._coeffs(u, k))

    def pack(self, digits: Sequence[int]) -> int:
        return self._from_coeffs(digits)

    def code(self, u: int, v: int, j: int) -> int:
        """The first j coefficients packed in base q, for 0 <= v < j."""
        value = 0
        for d in reversed(self._coeffs(u, j - v)):
            value = value * self.q + d
        return value * self.q ** v
