from fractions import Fraction

import pytest

from dvfield.valuation import (INFINITY, factorial_valuation, is_infinite,
                               is_prime, vp)


def test_infinity_is_a_singleton_top_element():
    assert INFINITY + 5 is INFINITY
    assert 5 + INFINITY is INFINITY
    assert INFINITY > 10**100
    assert not (INFINITY < 0)
    assert INFINITY >= INFINITY
    assert not (INFINITY > INFINITY)
    assert INFINITY == INFINITY and INFINITY != 0
    assert INFINITY <= INFINITY and not (INFINITY <= 10**100)
    with pytest.raises(ArithmeticError):
        INFINITY - INFINITY
    assert is_infinite(INFINITY)
    assert not is_infinite(0)


def test_primality():
    assert [n for n in range(2, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert is_prime(2**61 - 1)
    assert not is_prime(561)          # Carmichael number
    # Carmichael, and prime to every Miller-Rabin base: only the strong
    # test refutes it
    assert not is_prime(41 * 61 * 101)
    trial = [n for n in range(2, 400) if all(n % d for d in range(2, n))]
    assert [n for n in range(2, 400) if is_prime(n)] == trial


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
    assert factorial_valuation(5, 0) == 0
    assert factorial_valuation(7, 49) == 8


def test_factorial_valuation_bound_and_equality_at_prime_powers():
    for p in (2, 3, 5, 7):
        for j in range(1, 400):
            assert (p - 1) * factorial_valuation(p, j) <= j - 1
        for n in (1, 2, 3):
            j = p**n
            assert (p - 1) * factorial_valuation(p, j) == j - 1

