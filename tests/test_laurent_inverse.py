"""Laurent inversion in F_q((T)) against sympy's inverse modulo T^n in GF(q)[T]."""

import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcdex, gf_strip

from dvfield.errors import (DivisionByIndistinguishableZero, DomainError,
                            PrecisionExhausted)
from dvfield.localfield import FieldElement, Qp, laurent_field, laurent_invert


def series(F, v, coeffs):
    """sum c_i T^(v+i), known modulo T^(v + len(coeffs))."""
    n = len(coeffs)
    x = FieldElement.zero_to_precision(F, n)
    for i, c in enumerate(coeffs):
        if c:
            x = x + FieldElement.from_rational(F, c, 1, n - i).shift(i)
    return x.shift(v)


def sympy_inverse(coeffs, q, n):
    """Coefficients (low to high) of the inverse of sum c_i T^i modulo T^n."""
    f = gf_strip([ZZ(c) for c in reversed(coeffs[:n])])
    g = [ZZ(1)] + [ZZ(0)] * n
    s, _, h = gf_gcdex(f, g, q, ZZ)
    assert h == [1]
    inv = [int(c) for c in reversed(s)]
    return tuple(inv + [0] * (n - len(inv)))


def random_unit(rng, q, n):
    return [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(n - 1)]


CASES = [(q, n, v) for q in (2, 3, 5, 7) for n in (1, 2, 17, 256) for v in (-3, 0, 2)]


@pytest.mark.parametrize("q,n,v", CASES)
def test_inverse_matches_sympy(q, n, v):
    rng = random.Random(f"laurent-inverse:{q}:{n}:{v}")
    F = laurent_field(q)
    coeffs = random_unit(rng, q, n)
    f = series(F, v, coeffs)
    assert f.valuation == v and f.abs_precision == v + n
    inv = f.inverse()
    assert inv.valuation == -v and inv.abs_precision == -v + n
    assert inv.digits == sympy_inverse(coeffs, q, n)
    prec = rng.randrange(1, n + 1)
    g = laurent_invert(f, prec)
    assert g.valuation == -v and g.abs_precision == prec - v
    assert g.digits == sympy_inverse(coeffs, q, prec)
    one = f * g
    assert one.valuation == 0 and one.abs_precision == prec
    assert one.digits == (1,) + (0,) * (prec - 1)


def test_laurent_invert_refusals():
    F = laurent_field(5)
    f = series(F, 1, [2, 3, 0, 1])
    with pytest.raises(PrecisionExhausted):
        laurent_invert(f, 5)
    with pytest.raises(DivisionByIndistinguishableZero):
        laurent_invert(FieldElement.zero_to_precision(F, 4), 2)
    with pytest.raises(DomainError):
        laurent_invert(FieldElement.from_rational(Qp(5), 2, 1, 4), 2)
