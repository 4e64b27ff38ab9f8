import math
import random
from fractions import Fraction

import pytest

from dvfield.errors import DomainError, PrecisionExhausted
from dvfield.localfield import FieldElement, Qp, laurent_field
from dvfield.special import e_min, exp_eval, exp_functional_check, exp_series, log_solve
from dvfield.valuation import factorial_valuation, vp

Q2 = Qp(2)
Q3 = Qp(3)
Q5 = Qp(5)
Q7 = Qp(7)


def el(desc, num, den=1, prec=12):
    return FieldElement.from_rational(desc, num, den, prec)


def test_domain_edge():
    assert e_min(2) == 2
    for p in (3, 5, 7, 11):
        assert e_min(p) == 1


def test_needs_characteristic_zero():
    with pytest.raises(DomainError):
        exp_series(laurent_field(5), 8)


class TestCoefficients:
    def test_stored_coefficients_are_inverse_factorials(self):
        E = exp_series(Q5, 8).materialized(8)
        for j in range(8):
            expected = FieldElement.from_rational(
                Q5, 1, math.factorial(j), E.coeffs[j].abs_precision)
            assert E.coeffs[j].agrees_with(expected,
                                           min(6, E.coeffs[j].abs_precision))

    def test_tail_minorant_certified_far_out(self):
        for p in (2, 3, 5, 7):
            E = exp_series(Qp(p), 8)
            s, i = E.tail.slope, E.tail.intercept
            for j in range(1, 501):
                v = -factorial_valuation(p, j)
                if j < 30:
                    assert v == vp(p, Fraction(1, math.factorial(j)))
                assert Fraction(v) >= s * j + i


class TestExpEval:
    def test_oracle_q5(self):
        got = exp_eval(el(Q5, 5, 1, 14), 3)
        assert got.reduce_mod(3) == 81       # 1 + 5 + 25/2 mod 125

    def test_oracle_q2(self):
        got = exp_eval(el(Q2, 4, 1, 14), 6)
        assert got.reduce_mod(6) == 13       # 1 + 4 + 8 mod 64

    def test_partial_sum_oracle_random(self):
        rng = random.Random(13)
        for p in (3, 5, 7):
            desc = Qp(p)
            for _ in range(10):
                a = p * rng.randrange(1, p**3)
                got = exp_eval(el(desc, a, 1, 16), 8)
                acc = Fraction(0)
                for j in range(0, 64):
                    term = Fraction(a) ** j / math.factorial(j)
                    if j > 0 and vp(p, term) >= 8:
                        break
                    acc += term
                want = FieldElement.from_rational(
                    desc, acc.numerator, acc.denominator, 8)
                assert got.agrees_with(want, 8)

    def test_unit_magnitude_and_isometry(self):
        rng = random.Random(31)
        for p in (2, 3, 5):
            desc = Qp(p)
            for _ in range(20):
                v = rng.randrange(e_min(p), 5)
                a = p**v * rng.randrange(1, p**3)
                if a % p**(v + 1) == 0:
                    continue
                x = el(desc, a, 1, 16)
                y = exp_eval(x, 10)
                assert y.valuation == 0
                assert (y - FieldElement.one(desc, 10)).valuation == x.valuation

    def test_diverges_outside_domain(self):
        with pytest.raises(DomainError):
            exp_eval(el(Q2, 2, 1, 12), 8)     # p=2 needs v >= 2
        with pytest.raises(DomainError):
            exp_eval(el(Q5, 3, 1, 12), 8)

    def test_argument_known_to_fewer_digits_than_the_target(self):
        with pytest.raises(PrecisionExhausted):
            exp_eval(el(Q5, 5, 1, 4), 10)

    def test_at_zero(self):
        x = FieldElement.zero_to_precision(Q5, 12)
        assert exp_eval(x, 8).agrees_with(FieldElement.one(Q5, 8), 8)


class TestFunctionalEquation:
    def test_addition_law(self):
        assert exp_functional_check(el(Q5, 5, 1, 16), el(Q5, 10, 1, 16), 8)
        assert exp_functional_check(el(Q2, 4, 1, 16), el(Q2, 8, 1, 16), 8)

    def test_inverse_law(self):
        for p, a in ((3, 6), (5, 5), (7, 14)):
            desc = Qp(p)
            x = el(desc, a, 1, 16)
            prod = (exp_eval(x, 8) * exp_eval(-x, 8)).truncate(8)
            assert prod.agrees_with(FieldElement.one(desc, 8), 8)

    def test_random_pairs(self):
        rng = random.Random(37)
        for _ in range(20):
            p = rng.choice([3, 5, 7])
            desc = Qp(p)
            x = el(desc, p * rng.randrange(1, p**3), 1, 18)
            y = el(desc, p * rng.randrange(1, p**3), 1, 18)
            assert exp_functional_check(x, y, 8)


class TestLog:
    def test_round_trip_exp_then_log(self):
        for p, a in ((2, 12), (3, 6), (5, 35), (7, 7)):
            desc = Qp(p)
            x = el(desc, a, 1, 18)
            z = exp_eval(x, 12)
            back = log_solve(z, 10)
            assert back.agrees_with(x, 10)

    def test_round_trip_log_then_exp(self):
        z = el(Q5, 1 + 5 * 13, 1, 16)
        x = log_solve(z, 10)
        assert exp_eval(x, 10).agrees_with(z, 10)

    def test_log_of_one_is_zero(self):
        x = log_solve(FieldElement.one(Q5, 14), 10)
        assert x.is_zero_to_precision

    def test_domain_requires_one_plus_small(self):
        with pytest.raises(DomainError):
            log_solve(el(Q5, 2, 1, 12), 8)
        with pytest.raises(DomainError):
            log_solve(el(Q2, 3, 1, 12), 8)    # v(z-1) = 1 < 2
