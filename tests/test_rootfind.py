import random
from fractions import Fraction

import pytest

from dvfield.errors import (AllCoefficientsIndistinguishableFromZero,
                            ContractionFails,
                            DerivativeIndistinguishableFromZero, DomainError,
                            HypothesesFail, PrecisionExhausted,
                            TailInconclusive, UndecidedMultipleRoot)
from dvfield.localfield import FieldElement, Qp, laurent_field
from dvfield.rootfind import (HenselProblem, check_hypotheses,
                              enumerate_roots, fixed_point_solve,
                              hensel_solve, strassmann_bound)
from dvfield.series import TruncatedSeries, polynomial
from dvfield.special import exp_series
from dvfield.textio import parse_element
from dvfield.valuation import INFINITY

Q2 = Qp(2)
Q3 = Qp(3)
Q5 = Qp(5)
Q7 = Qp(7)


def el(desc, num, den=1, prec=12):
    return FieldElement.from_rational(desc, num, den, prec)


def zero(desc, prec=12):
    return FieldElement.zero_to_precision(desc, prec)


def sqrt_problem(desc, c, x0, prec=12, target=8):
    f = polynomial(desc, [-c, 0, 1], prec)
    return HenselProblem(f, el(desc, x0, 1, prec), zero(desc, prec), 0, target)


class TestHypotheses:
    def test_sqrt2_q7_all_hold(self):
        rep = check_hypotheses(sqrt_problem(Q7, 2, 3))
        assert rep.h_close and rep.h_quadratic and rep.sufficient

    def test_q2_square_far_target(self):
        # |z - f(x0)| = |3| = 1 > |f'(1)| * 1 = 1/2
        f = polynomial(Q2, [0, 0, 1], 12)
        rep = check_hypotheses(
            HenselProblem(f, el(Q2, 1), el(Q2, 4), 0, 8))
        assert not rep.h_close and not rep.sufficient

    def test_q2_square_close_but_not_quadratic(self):
        # |z - f(x0)| = |2| = 1/2 <= |f'| but M2 |z - f| = 1/2 = |f'|^2
        f = polynomial(Q2, [0, 0, 1], 12)
        rep = check_hypotheses(
            HenselProblem(f, el(Q2, 1), el(Q2, 3), 0, 8))
        assert rep.h_close and not rep.h_quadratic and not rep.sufficient

    def test_domain_ball_enforced(self):
        f = polynomial(Q5, [0, 1], 12)
        with pytest.raises(DomainError):
            check_hypotheses(HenselProblem(f, el(Q5, 3), zero(Q5), 1, 8))

    def test_derivative_must_be_visible(self):
        f = polynomial(Q5, [1, 0, 0], 12)
        with pytest.raises(DerivativeIndistinguishableFromZero):
            check_hypotheses(HenselProblem(f, el(Q5, 1), zero(Q5), 0, 8))


class TestHenselSolve:
    def test_sqrt2_q7(self):
        cert = hensel_solve(sqrt_problem(Q7, 2, 3))
        root = cert.root
        assert root.reduce_mod(3) == 108          # 3 + 7 + 2*49
        sq = (root * root).truncate(8)
        assert sq.agrees_with(el(Q7, 2, 1, 8), 8)
        assert cert.residual_prec >= 8
        assert cert.derivative_magnitude.exponent == 0

    def test_b_trace_is_quadratically_shrinking(self):
        cert = hensel_solve(sqrt_problem(Q7, 2, 3, prec=20, target=16))
        exps = [b.exponent for b in cert.b_trace]
        assert exps[0] == 1
        for a, b in zip(exps, exps[1:]):
            assert b >= 2 * a                     # b_{l+1} <= b_l^2

    def test_refuses_when_hypotheses_fail(self):
        with pytest.raises(HypothesesFail):
            hensel_solve(sqrt_problem(Q5, 2, 1))  # 1 is not close to sqrt(2)

    def test_uniqueness_radius(self):
        cert = hensel_solve(sqrt_problem(Q7, 2, 3))
        assert cert.uniqueness_exponent == 1
        # the other square root 7^3-108 = 235 is outside that radius
        other = el(Q7, 235, 1, 12)
        assert (cert.root - other).valuation < cert.uniqueness_exponent

    def test_nonzero_right_hand_side(self):
        f = polynomial(Q7, [0, 0, 1], 12)
        cert = hensel_solve(HenselProblem(f, el(Q7, 3), el(Q7, 2), 0, 8))
        assert cert.root.reduce_mod(3) == 108

    def test_random_square_roots(self):
        rng = random.Random(17)
        for p in (3, 5, 7, 11):
            desc = Qp(p)
            for _ in range(10):
                r = rng.randrange(1, p)
                c = r * r
                cert = hensel_solve(sqrt_problem(desc, c, r))
                sq = (cert.root * cert.root).truncate(8)
                assert sq.agrees_with(el(desc, c, 1, 8), 8)


class TestFixedPoint:
    def test_agrees_with_hensel(self):
        a = hensel_solve(sqrt_problem(Q7, 2, 3))
        b = fixed_point_solve(sqrt_problem(Q7, 2, 3))
        assert a.root.agrees_with(b.root, 8)
        assert a.derivative_magnitude == b.derivative_magnitude

    def test_contraction_failure(self):
        # |z - f(x0)| = 1 = |f'(1)| over Q2: t * M2 is not below |f'|
        f = polynomial(Q2, [-2, 0, 1], 12)
        with pytest.raises(ContractionFails):
            fixed_point_solve(HenselProblem(f, el(Q2, 1), zero(Q2), 0, 8))

    def test_agreement_on_random_instances(self):
        rng = random.Random(29)
        for _ in range(15):
            p = rng.choice([3, 5, 7])
            desc = Qp(p)
            r = rng.randrange(1, p)
            prob = sqrt_problem(desc, r * r, r)
            a = hensel_solve(prob)
            b = fixed_point_solve(prob)
            assert a.root.agrees_with(b.root, 8)


class TestStrassmann:
    def test_cubic_over_q3(self):
        f = polynomial(Q3, [0, -1, 0, 1], 10)
        rep = strassmann_bound(f, 0)
        assert rep.bound_N == 3 and rep.attaining_index == 3

    def test_unit_constant_gives_zero(self):
        f = polynomial(Q5, [1, 5, 25], 10)
        assert strassmann_bound(f, 0).bound_N == 0

    def test_exp_has_no_zeros(self):
        assert strassmann_bound(exp_series(Q5, 8), 1).bound_N == 0

    def test_from_index_bounds_level_sets(self):
        # max over j >= 1 for E(X) - 1: attained at j = 1 on v(x) >= 1
        E = exp_series(Q5, 8)
        assert strassmann_bound(E, 1, from_index=1).bound_N == 1

    def test_all_coefficients_undetermined(self):
        f = TruncatedSeries(Q5, (FieldElement.zero_to_precision(Q5, 4),
                                 FieldElement.zero_to_precision(Q5, 4)))
        with pytest.raises(AllCoefficientsIndistinguishableFromZero):
            strassmann_bound(f, 0)

    def test_undetermined_coefficient_blocks_the_bound(self):
        f = TruncatedSeries(Q5, (FieldElement.zero_to_precision(Q5, 2),
                                 el(Q5, 25, 1, 8)))
        with pytest.raises(TailInconclusive):
            strassmann_bound(f, 0)


class TestEnumerateRoots:
    def test_cubic_over_q3(self):
        f = polynomial(Q3, [0, -1, 0, 1], 12)
        certs = enumerate_roots(f, 0, target_prec=8)
        assert len(certs) == 3
        values = sorted(c.root.reduce_mod(4) for c in certs)
        assert values == [0, 1, 3**4 - 1]        # 0, 1, -1 mod 3^4

    def test_no_rational_square_root_of_three(self):
        f = polynomial(Q5, [-3, 0, 1], 12)
        assert enumerate_roots(f, 0, target_prec=8) == []

    def test_double_root_refused(self):
        f = polynomial(Q5, [0, 0, 1], 12)
        with pytest.raises(UndecidedMultipleRoot):
            enumerate_roots(f, 0, target_prec=8)

    def test_count_respects_strassmann(self):
        rng = random.Random(41)
        for _ in range(25):
            f = polynomial(Q5, [rng.randrange(-10, 10) for _ in range(4)], 14)
            try:
                rep = strassmann_bound(f, 0)
                certs = enumerate_roots(f, 0, target_prec=6)
            except (UndecidedMultipleRoot,
                    AllCoefficientsIndistinguishableFromZero):
                continue
            assert len(certs) <= rep.bound_N
            for c in certs:
                assert f.eval(c.root, 6).is_zero_to_precision

    def test_roots_inside_a_smaller_ball(self):
        # x(x - 5)(x - 1): on v(x) >= 1 only 0 and 5 remain
        f = polynomial(Q5, [0, 5, -6, 1], 14)
        certs = enumerate_roots(f, 1, target_prec=8)
        assert len(certs) == 2
        assert sorted(c.root.reduce_mod(2) for c in certs) == [0, 5]

    def test_certificates_verify_independently(self):
        f = polynomial(Q3, [0, -1, 0, 1], 12)
        for cert in enumerate_roots(f, 0, target_prec=8):
            assert cert.residual_prec >= 8
            assert not cert.derivative_magnitude.is_zero


def pin(cert):
    """Every field of a certificate as plain data."""
    r = cert.root
    return (r.valuation, r.digits, r.abs_precision, cert.residual_prec,
            cert.uniqueness_exponent, tuple(b.exponent for b in cert.b_trace),
            cert.derivative_magnitude.exponent)


class TestGoldenCertificates:
    """Certificates pinned field by field at target = working precision,
    where every claimed digit is right (checked against f(root) = 0)."""

    SQRT2_Q7 = (3, 1, 2, 6, 1, 2, 1, 2, 4, 6, 6, 2)
    SQRT_1_PLUS_T = (1, 3, 3, 1, 0, 2, 1, 1, 2, 0, 1, 3)

    def test_sqrt2_over_q7(self):
        prob = sqrt_problem(Q7, 2, 3, prec=12, target=12)
        assert pin(hensel_solve(prob)) == (
            0, self.SQRT2_Q7, 12, 12, 1, (1, 2, 4, 8), 0)
        assert pin(fixed_point_solve(prob)) == (
            0, self.SQRT2_Q7, 12, 12, 1, tuple(range(1, 12)), 0)

    def test_sqrt_one_plus_t_over_f5(self):
        L5 = laurent_field(5)
        minus_one_minus_t = parse_element("4 + 4*T + O(T^12)", L5, 12)
        f = TruncatedSeries(L5, (minus_one_minus_t, zero(L5),
                                 FieldElement.one(L5, 12)))
        prob = HenselProblem(f, FieldElement.one(L5, 12), zero(L5), 0, 12)
        assert pin(hensel_solve(prob)) == (
            0, self.SQRT_1_PLUS_T, 12, 12, 1, (1, 2, 4, 8), 0)
        assert pin(fixed_point_solve(prob)) == (
            0, self.SQRT_1_PLUS_T, 12, 12, 1, tuple(range(1, 12)), 0)

    def test_enumerate_cubic_over_q3(self):
        f = polynomial(Q3, [0, -1, 0, 1], 10)
        assert [pin(c) for c in enumerate_roots(f, 0)] == [
            (0, (1,) + (0,) * 9, 10, 10, 10, (), 0),
            (0, (2,) * 10, 10, 10, 10, (), 0),
            (INFINITY, (), 10, 10, 10, (), 0),
        ]


class TestPrecisionRefusals:
    def test_target_beyond_working_precision(self):
        prob = sqrt_problem(Q7, 2, 3, prec=12, target=14)
        for solve in (hensel_solve, fixed_point_solve):
            with pytest.raises(PrecisionExhausted,
                               match="target precision 14 exceeds working "
                                     "precision 12"):
                solve(prob)

    def _two_thirds_problem(self, target):
        # X^2 - 4/9 from x0 = 2/3 + 3: every value at v(x) = -1 is known
        # only modulo 3^10 although the data are known modulo 3^12
        f = polynomial(Q3, [Fraction(-4, 9), 0, 1], 12)
        return HenselProblem(f, el(Q3, 11, 3), zero(Q3), -1, target)

    def test_negative_valuation_start_uses_the_certified_precision(self):
        root = (2,) + (0,) * 11                  # 2/3
        prob = self._two_thirds_problem(10)
        assert pin(hensel_solve(prob)) == (-1, root, 11, 10, 1, (2, 4, 8), -1)
        assert pin(fixed_point_solve(prob)) == (
            -1, root, 11, 10, 1, (2, 4, 6, 8, 10), -1)

    def test_negative_valuation_start_short_of_target(self):
        prob = self._two_thirds_problem(11)
        for solve in (hensel_solve, fixed_point_solve):
            with pytest.raises(PrecisionExhausted,
                               match="cannot certify the value even modulo q\\^11"):
                solve(prob)
