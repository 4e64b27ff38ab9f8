import operator
from fractions import Fraction

import pytest

from dvfield.valuation import (INFINITY, Magnitude, factorial_valuation,
                               is_infinite, is_prime, vp)


def test_infinity_is_a_singleton_top_element():
    assert INFINITY + 5 is INFINITY
    assert 5 + INFINITY is INFINITY
    assert INFINITY > 10**100
    assert not (INFINITY < 0)
    assert INFINITY >= INFINITY
    assert not (INFINITY > INFINITY)
    assert is_infinite(INFINITY)
    assert not is_infinite(0)


def test_primality():
    assert [n for n in range(2, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert is_prime(2**61 - 1)
    assert not is_prime(561)          # Carmichael number


def test_vp_on_rationals():
    assert vp(3, Fraction(7, 9)) == -2
    assert vp(5, 250) == 3
    assert vp(2, Fraction(3, 4)) == -2
    assert is_infinite(vp(7, 0))
    with pytest.raises(ValueError):
        vp(4, 1)


def test_factorial_valuation_small_values():
    assert factorial_valuation(3, 9) == 4
    assert factorial_valuation(2, 10) == 8
    assert factorial_valuation(5, 4) == 0
    assert factorial_valuation(7, 49) == 8


def test_factorial_valuation_bound_and_equality_at_prime_powers():
    for p in (2, 3, 5, 7):
        for j in range(1, 400):
            assert (p - 1) * factorial_valuation(p, j) <= j - 1
        for n in (1, 2, 3):
            j = p**n
            assert (p - 1) * factorial_valuation(p, j) == j - 1


def test_magnitude_algebra():
    one = Magnitude(5, 0)
    small = Magnitude(5, 2)        # 5^-2
    tiny = Magnitude(5, 7)
    assert small * tiny == Magnitude(5, 9)
    assert small.inverse() == Magnitude(5, -2)
    assert tiny < small < one
    assert one >= small
    z = Magnitude.zero(5)
    assert z.is_zero
    assert z < tiny
    assert (z * small).is_zero
    with pytest.raises(ZeroDivisionError):
        z.inverse()
    with pytest.raises(ValueError):
        small * Magnitude(7, 1)


def test_magnitude_order_is_reflected_and_refuses_other_types():
    exps = (-2, 0, 3, INFINITY)
    for a in exps:
        for b in exps:
            x, y = Magnitude(5, a), Magnitude(5, b)
            assert (x < y, x <= y, x > y, x >= y) == (b < a, b <= a, a < b, a <= b)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(Magnitude(3, 1), 5)
        with pytest.raises(TypeError):
            op(5, Magnitude(3, 1))
