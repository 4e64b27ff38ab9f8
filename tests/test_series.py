import random
from fractions import Fraction

import pytest

from dvfield.errors import DomainError, InsufficientPrecision
from dvfield.localfield import FieldElement, Qp, invert_one_minus
from dvfield.series import TailProfile, TruncatedSeries, polynomial
from dvfield.special import exp_series
from dvfield.valuation import INFINITY

Q2 = Qp(2)
Q3 = Qp(3)
Q5 = Qp(5)
Q7 = Qp(7)


def el(desc, num, den=1, prec=10):
    return FieldElement.from_rational(desc, num, den, prec)


def geometric(desc, prec=12):
    """All coefficients 1: converges for v(x) >= 1 to 1/(1-x)."""
    one = el(desc, 1, 1, prec)
    return TruncatedSeries(
        desc, (one, one, one),
        TailProfile(start=3, slope=Fraction(0), intercept=Fraction(0)),
        lambda j: el(desc, 1, 1, prec))


class TestSupTerm:
    def test_square_over_q5(self):
        f = polynomial(Q5, [0, 0, 1], 8)
        assert f.sup_exponent(0, 1) == 0
        assert f.sup_exponent(0, 2) == 0

    def test_exp_over_q5_radius_one(self):
        # attained at j = 2 by |1/2| * r^0 = 1
        assert exp_series(Q5, 8).sup_exponent(1, 2) == 0

    def test_inadmissible_radius_rejected(self):
        with pytest.raises(DomainError):
            exp_series(Q5, 8).sup_exponent(0, 2)

    def test_empty_range_is_zero_magnitude(self):
        f = polynomial(Q5, [1, 1], 8)
        assert f.sup_exponent(0, 2) is INFINITY


class TestEval:
    def test_at_zero(self):
        f = polynomial(Q5, [1, 1, 1], 8)
        x = FieldElement.zero_to_precision(Q5, 8)
        assert f.eval(x, 8).agrees_with(el(Q5, 1, 1, 8), 8)

    def test_square_minus_two_at_three(self):
        f = polynomial(Q7, [-2, 0, 1], 10)
        got = f.eval(el(Q7, 3), 8)
        assert got.agrees_with(el(Q7, 7, 1, 8), 8)

    def test_geometric_matches_invert_one_minus(self):
        x = el(Q7, 7 * 4, 1, 12)
        f = geometric(Q7)
        assert f.eval(x, 8).agrees_with(invert_one_minus(x, 8), 8)

    def test_inadmissible_argument(self):
        with pytest.raises(DomainError):
            geometric(Q7).eval(el(Q7, 3, 1, 12), 8)

    def test_reports_the_precision_it_certifies(self):
        # at v(x) = -1 the square loses two digits of the data's 3^12
        f = polynomial(Q3, [Fraction(-4, 9), 0, 1], 12)
        x = el(Q3, 1, 3, 12)
        got = f.eval(x, 12)
        assert got.abs_precision == 10
        assert got == f.eval(x, 10)
        assert f.eval(x, 8).abs_precision == 8

    def test_tail_must_start_within_the_stored_coefficients(self):
        # a_2..a_9 would be covered by neither the stored part nor the tail
        with pytest.raises(ValueError):
            TruncatedSeries(Q5, (el(Q5, 1), el(Q5, 5)),
                            TailProfile(10, Fraction(1), Fraction(8)))

    def test_evaluation_bound(self):
        rng = random.Random(7)
        f = polynomial(Q5, [rng.randrange(-50, 50) for _ in range(5)], 12)
        for _ in range(50):
            x = el(Q5, rng.randrange(1, 5**6), 1, 12)
            m = x.valuation
            val = f.eval(x, 10)
            bound = min((c.valuation_lower_bound + m * j
                         for j, c in enumerate(f.coeffs)))
            assert val.valuation_lower_bound >= bound


class TestDerivative:
    def test_polynomial(self):
        d = polynomial(Q5, [4, 0, 1], 8).derivative()
        assert d.coeffs[0].is_zero_to_precision
        assert d.coeffs[1].agrees_with(el(Q5, 2, 1, 8), 8)

    def test_constant(self):
        d = polynomial(Q5, [3], 8).derivative()
        assert d.stored_len == 0
        assert d.eval(el(Q5, 2, 1, 8), 8).is_zero_to_precision

    def test_exp_derivative_is_exp(self):
        E = exp_series(Q5, 8).materialized(6)
        D = E.derivative()
        for j in range(5):
            assert D.materialized(6).coeffs[j].agrees_with(E.coeffs[j], 6)


class TestCauchyProduct:
    def test_difference_of_squares(self):
        h = polynomial(Q5, [1, 1], 8).cauchy_product(polynomial(Q5, [1, -1], 8))
        assert h.coeffs[0].agrees_with(el(Q5, 1, 1, 8), 8)
        assert h.coeffs[1].is_zero_to_precision
        assert h.coeffs[2].agrees_with(el(Q5, -1, 1, 8), 8)

    def test_multiplicative_identity(self):
        f = polynomial(Q5, [2, 0, 3], 8)
        h = f.cauchy_product(polynomial(Q5, [1], 8))
        for a, b in zip(h.coeffs, f.coeffs):
            assert a.agrees_with(b, 8)

    def test_exp_times_exp_is_exp_of_double(self):
        E = exp_series(Q5, 8).materialized(12)
        sq = E.cauchy_product(E)
        x = el(Q5, 5, 1, 14)
        lhs = sq.eval(x, 6)
        rhs = exp_series(Q5, 8).eval(x.mul_integer(2), 6)
        assert lhs.agrees_with(rhs, 6)

    def test_bilinearity_on_random_polynomials(self):
        rng = random.Random(3)
        for _ in range(20):
            f = polynomial(Q3, [rng.randrange(-20, 20) for _ in range(4)], 10)
            g = polynomial(Q3, [rng.randrange(-20, 20) for _ in range(4)], 10)
            x = el(Q3, rng.randrange(0, 3**5), 1, 10)
            prod = f.cauchy_product(g).eval(x, 8)
            direct = (f.eval(x, 8) * g.eval(x, 8)).truncate(8)
            assert prod.agrees_with(direct, 8)


class TestRecenter:
    def test_square_at_one(self):
        rc = polynomial(Q5, [0, 0, 1], 8).recenter(el(Q5, 1, 1, 8), 0)
        assert [c.reduce_mod(2) for c in rc.coeffs] == [1, 2, 1]

    def test_constant_unchanged(self):
        rc = polynomial(Q5, [9], 8).recenter(el(Q5, 1, 1, 8), 0)
        assert rc.stored_len == 1
        assert rc.coeffs[0].agrees_with(el(Q5, 9, 1, 8), 8)

    def test_cubic_evaluation_agreement(self):
        f = polynomial(Q3, [0, -1, 0, 1], 10)
        x0 = el(Q3, 1, 1, 10)
        rc = f.recenter(x0, 0)
        rng = random.Random(11)
        for _ in range(10):
            w = el(Q3, 3 * rng.randrange(1, 3**4), 1, 10)
            assert rc.eval(w, 6).agrees_with(f.eval(w + x0, 6), 6)

    def test_inadmissible_center(self):
        with pytest.raises(DomainError):
            exp_series(Q5, 8).recenter(el(Q5, 1, 1, 8), 1)

    def test_tailed_series_recenter(self):
        E = exp_series(Q5, 8)
        x0 = el(Q5, 5, 1, 14)
        rc = E.recenter(x0, 1)
        w = el(Q5, 25, 1, 14)
        assert rc.eval(w, 6).agrees_with(E.eval(w + x0, 6), 6)


class TestDeflate:
    def test_difference_of_squares_factor(self):
        g0 = polynomial(Q7, [-4, 0, 1], 8).deflate(el(Q7, 2, 1, 8), 0)
        assert g0.coeffs[0].agrees_with(el(Q7, 2, 1, 8), 8)
        assert g0.coeffs[1].agrees_with(el(Q7, 1, 1, 8), 8)

    def test_linear(self):
        g0 = polynomial(Q5, [7, 3], 8).deflate(el(Q5, 1, 1, 8), 0)
        assert g0.stored_len == 1
        assert g0.coeffs[0].agrees_with(el(Q5, 3, 1, 8), 8)

    def test_value_at_center_is_derivative(self):
        f = polynomial(Q5, [0, -1, 0, 1], 10)
        x0 = el(Q5, 1, 1, 10)
        g0 = f.deflate(x0, 0)
        assert g0.eval(x0, 8).agrees_with(el(Q5, 2, 1, 8), 8)

    def test_factorization_identity_on_samples(self):
        f = polynomial(Q3, [2, -1, 5, 1], 12)
        x0 = el(Q3, 2, 1, 12)
        g0 = f.deflate(x0, 0)
        rng = random.Random(5)
        for _ in range(20):
            x = el(Q3, rng.randrange(0, 3**6), 1, 12)
            lhs = f.eval(x, 8) - f.eval(x0, 8)
            rhs = ((x - x0) * g0.eval(x, 8)).truncate(8)
            assert lhs.agrees_with(rhs, 8)


class TestThresholdAndIsometry:
    def test_isometry_certified_q5(self):
        e_fp = polynomial(Q5, [0, 0, 1], 8).isometry_criterion(
            0, el(Q5, 1, 1, 8), 1)
        assert e_fp == 0                       # |f'(1)| = |2| = 1

    def test_isometry_not_certified_q2(self):
        # X^2 at 1 over Q_2: M2 = 1 and |f'(1)| = 1/2, so the separation
        # must exceed 1; at 1, (1 + 2)^2 - 1 = 8 has valuation 3, not v(2 * 2) = 2
        f = polynomial(Q2, [0, 0, 1], 8)
        assert [f.isometry_criterion(0, el(Q2, 1, 1, 8), sep)
                for sep in (0, 1, 2)] == [None, None, 1]

    def test_isometry_not_certified_where_the_derivative_vanishes(self):
        # f'(0) = 0 to every digit: no similarity, and no exception
        assert polynomial(Q5, [0, 0, 1], 8).isometry_criterion(
            0, FieldElement.zero_to_precision(Q5, 8), 1) is None

    def test_isometry_checks_the_radius_before_evaluating(self):
        # exp's series admits only v(x) >= 1 over Q_5; y is known past
        # what eval certifies, so an eval would refuse with PrecisionExhausted
        with pytest.raises(DomainError, match="radius exponent 0 inadmissible"):
            exp_series(Q5, 8).isometry_criterion(0, el(Q5, 5, 1, 30), 1)

    def test_isometry_reads_the_derivative_to_the_certified_precision(self):
        # f'(1) = 3 is known only modulo 5^4, y to 5^10; its valuation 0
        # is all the criterion reads: f(x) - f(1) = (x - 1)(x + 2), and
        # x + 2 is a unit on B(1, 5^-2)
        f = polynomial(Q5, [0, 1, 1], 4)
        assert f.isometry_criterion(0, el(Q5, 1, 1, 10), 2) == 0

    def test_isometry_not_certified_where_the_derivative_is_zero_to_its_precision(self):
        # f'(y) = 5^4 (1 + 4y) at y = 1 is zero modulo 5^4, the precision
        # eval certifies, though y is known to 5^10
        f = polynomial(Q5, [0, 625, 1250], 4)
        assert f.isometry_criterion(0, el(Q5, 1, 1, 10), 2) is None

    def test_certified_pairs_scale_exactly(self):
        f = polynomial(Q5, [0, 0, 1], 12)
        rng = random.Random(23)
        for _ in range(100):
            y = el(Q5, rng.randrange(1, 5**5), 1, 12)
            sep = rng.randrange(1, 4)
            e_fp = f.isometry_criterion(0, y, sep)
            if e_fp is None:
                continue
            x = y + el(Q5, rng.randrange(1, 5**3) * 5**sep, 1, 12)
            diff = f.eval(x, 10) - f.eval(y, 10)
            assert diff.valuation == e_fp + (x - y).valuation


class TestOrderBounds:
    def test_first_order_lipschitz(self):
        f = polynomial(Q3, [1, 4, 2, 9], 12)
        m1 = f.sup_exponent(0, 1)
        rng = random.Random(9)
        for _ in range(50):
            a, b = rng.randrange(0, 3**6), rng.randrange(0, 3**6)
            if a == b:
                continue
            x, y = el(Q3, a, 1, 12), el(Q3, b, 1, 12)
            d = f.eval(x, 10) - f.eval(y, 10)
            assert d.valuation_lower_bound >= m1 + (x - y).valuation

    def test_second_order_bound(self):
        f = polynomial(Q3, [1, 4, 2, 9], 14)
        fp = f.derivative()
        m2 = f.sup_exponent(0, 2)
        rng = random.Random(10)
        for _ in range(50):
            a, b = rng.randrange(0, 3**6), rng.randrange(0, 3**6)
            if a == b:
                continue
            x, y = el(Q3, a, 1, 14), el(Q3, b, 1, 14)
            lhs = f.eval(x, 10) - f.eval(y, 10) - fp.eval(y, 10) * (x - y)
            assert lhs.valuation_lower_bound >= min(
                m2 + 2 * (x - y).valuation, 10)


def test_materialized_needs_a_factory():
    f = TruncatedSeries(Q5, tuple([el(Q5, 1)]),
                        TailProfile(1, Fraction(0), Fraction(0)))
    with pytest.raises(InsufficientPrecision):
        f.materialized(5)
