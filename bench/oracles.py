"""Independent oracles for the benchmark's answer checks.

Nothing here imports dvfield: every expected value is computed from
plain integers and Fractions, so a defect in the library cannot also
hide in its own check.  Laurent elements are digit lists over F_q, least
significant first; their residue "codes" pack the first k digits in base
q, which is what FieldElement.reduce_mod(k) returns for F_q((T)).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence


def vp(p: int, x) -> Optional[int]:
    """p-adic valuation of a nonzero rational; None for zero."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    a, b = x.numerator, x.denominator
    while a % p == 0:
        a //= p
        v += 1
    while b % p == 0:
        b //= p
        v -= 1
    return v


def legendre(p: int, j: int) -> int:
    """v_p(j!) by direct factor counting, not by Legendre's formula."""
    return sum(vp(p, i) for i in range(2, j + 1))


def residue(p: int, x, k: int) -> int:
    """The representative of a p-integral rational in [0, p^k)."""
    x = Fraction(x)
    m = p ** k
    return x.numerator * pow(x.denominator, -1, m) % m


def exp_mod(p: int, x, k: int) -> int:
    """exp(x) modulo p^k as an exact-rational partial sum.

    Sums x^j / j! for j < J, where J is the first index from which every
    term has v(x^j / j!) >= j v(x) - (j - 1)/(p - 1) >= k, then reduces
    the exact rational result modulo p^k.  Needs x in the convergence
    domain, v(x) > 1/(p - 1).
    """
    x = Fraction(x)
    if x == 0:
        return 1 % p ** k
    v = vp(p, x)
    if v * (p - 1) <= 1:
        raise ValueError("argument outside the convergence domain")
    J = 1
    while J * v * (p - 1) - (J - 1) < k * (p - 1):
        J += 1
    a, b = x.numerator, x.denominator
    # sum_{j<J} a^j / (b^j j!) over the common denominator b^(J-1) (J-1)!
    num, tail = 0, 1            # tail = (J-1)!/j! as j runs down from J-1
    for j in range(J - 1, -1, -1):
        num += a ** j * b ** (J - 1 - j) * tail
        tail *= j if j else 1
    den = b ** (J - 1) * tail
    g = p ** (vp(p, Fraction(den)) or 0)
    m = p ** k
    return (num // g) * pow(den // g, -1, m) % m


def code(digits: Sequence[int], q: int, k: int) -> int:
    """Residue code of a Laurent digit list modulo T^k."""
    return sum(d * q ** i for i, d in enumerate(digits[:k]))


def laurent_poly_from_roots(roots: Sequence[Sequence[int]], q: int) -> List[List[int]]:
    """Coefficients (each a digit list in T) of prod (X - r) over F_q[T]."""
    coeffs: List[List[int]] = [[1]]
    for r in roots:
        out: List[List[int]] = [[] for _ in range(len(coeffs) + 1)]
        for i, a in enumerate(coeffs):
            out[i + 1] = poly_add(out[i + 1], a, q)
            out[i] = poly_add(out[i], [(-c) % q for c in poly_mul(r, a, q)], q)
        coeffs = out
    return coeffs


def rational_poly_from_roots(roots: Iterable) -> List[Fraction]:
    """Coefficients, constant first, of prod (X - r) over Q."""
    coeffs = [Fraction(1)]
    for r in roots:
        out = [Fraction(0)] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            out[i + 1] += a
            out[i] -= Fraction(r) * a
        coeffs = out
    return coeffs


def poly_mul(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def poly_add(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % q
            for i in range(n)]


def sqrt_mod_2(c: int, k: int) -> int:
    """The odd square root of c = 1 mod 8 in Z_2 that is 1 mod 4, modulo
    2^k, found digit by digit: each new bit is the one of the two
    candidates whose square still agrees with c two bits further."""
    if c % 8 != 1:
        raise ValueError("c must be 1 mod 8")
    r = 1
    for i in range(2, k):
        for bit in (0, 1):
            cand = r + bit * 2 ** i
            if (cand * cand - c) % 2 ** (i + 2) == 0:
                r = cand
                break
        else:
            raise ValueError("no lift")
    return r % 2 ** k


def match_roots(found: Sequence[tuple], known: Sequence) -> bool:
    """Whether the found roots, each a (residue, claimed precision) pair,
    match the known roots one to one at each claimed precision.

    known[i](k) gives the i-th known root's residue code modulo q^k."""
    if len(found) != len(known):
        return False
    used = set()
    for res, k in found:
        hit = None
        for i, root in enumerate(known):
            if i not in used and root(k) == res:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def _members(q: int, balls: Sequence[tuple]):
    """(J, mark): mark[x] is 1 for every residue x mod q^J, J the largest
    radius exponent, lying in one of the balls.  Each ball is (center
    code, radius exponent j) inside the unit ball, and its members are
    the arithmetic progression code + t q^j."""
    J = max(j for _, j in balls)
    size = q ** J
    mark = bytearray(size)
    for c, j in balls:
        step = q ** j
        start = c % step
        mark[start::step] = b"\x01" * len(range(start, size, step))
    return J, mark


def union_measure(q: int, balls: Sequence[tuple]) -> Fraction:
    """Haar measure of a union of balls, by counting member residues."""
    if not balls:
        return Fraction(0)
    J, mark = _members(q, balls)
    return Fraction(mark.count(1), q ** J)


def image_measure(p: int, coeffs: Sequence[int], balls: Sequence[tuple],
                  scale_exp: int) -> Fraction:
    """Measure of f(union) for an integer polynomial f that scales
    distances by p^(-scale_exp) on the union: the number of distinct
    residues f(x) mod p^(J + scale_exp) over the union's residues x mod
    p^J, divided by p^(J + scale_exp)."""
    J, mark = _members(p, balls)
    mod = p ** (J + scale_exp)
    images = set()
    for x in range(p ** J):
        if mark[x]:
            acc = 0
            for a in reversed(coeffs):
                acc = (acc * x + a) % mod
            images.add(acc)
    return Fraction(len(images), mod)


def strassmann_index(p: int, coeffs: Sequence, m: int) -> int:
    """Largest index j attaining min v(a_j) + m j."""
    best, arg = None, -1
    for j in range(len(coeffs)):
        v = vp(p, coeffs[j])
        if v is None:
            continue
        e = v + m * j
        if best is None or e <= best:
            best, arg = e, j
    return arg


def content_sign(count_base: int, beta_num: int, beta_den: int, beta_base: int) -> int:
    """Sign of count_base^(beta_den) - beta_base^(beta_num)."""
    lhs, rhs = count_base ** beta_den, beta_base ** beta_num
    return (lhs > rhs) - (lhs < rhs)
