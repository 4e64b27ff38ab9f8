import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solve_model as model

from dvfield import rootfind
from dvfield.errors import (AllCoefficientsIndistinguishableFromZero,
                            ContractionFails,
                            DerivativeIndistinguishableFromZero, DomainError,
                            HypothesesFail, PrecisionExhausted,
                            TailInconclusive, UltrametricError,
                            UndecidedMultipleRoot)
from dvfield.localfield import FieldElement, Qp, laurent_field
from dvfield.rootfind import (HenselProblem, check_hypotheses,
                              enumerate_roots, fixed_point_solve,
                              hensel_solve, strassmann_bound)
from dvfield.series import TailProfile, TruncatedSeries, polynomial
from dvfield.special import exp_series, log_solve
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

    def test_single_root_test_reads_the_residual(self):
        # M1' = max |a_j| q^(-m(j-2)) = 1 for X^2 on m = -1 and for X^2 - 2
        # on m = 0, so h_single is |z - f(x0)| < |f'(x0)|^2: |1/9| = 9 is
        # not below |2/3|^2 = 9, |7| = 1/7 is below |6|^2 = 1
        f = polynomial(Q3, [0, 0, 1], 12)
        rep = check_hypotheses(HenselProblem(f, el(Q3, 1, 3), zero(Q3), -1, 8))
        assert rep.h_close and not rep.h_single and not rep.sufficient
        assert check_hypotheses(sqrt_problem(Q7, 2, 3)).h_single

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
        assert cert.derivative_valuation == 0

    def test_b_trace_is_quadratically_shrinking(self):
        cert = hensel_solve(sqrt_problem(Q7, 2, 3, prec=20, target=16))
        exps = cert.b_trace
        assert exps[0] == 1
        for a, b in zip(exps, exps[1:]):
            assert b >= 2 * a                     # b_{l+1} <= b_l^2

    def test_linear_f_has_an_infinite_b_trace(self):
        # 3 + 2X over Q_5: M2 = 0, so one step lands on the root
        f = polynomial(Q5, [3, 2], 12)
        cert = hensel_solve(HenselProblem(f, el(Q5, 1), zero(Q5), 0, 8))
        assert cert.b_trace == (INFINITY,)
        assert cert.derivative_valuation == 0
        assert cert.root.agrees_with(el(Q5, -3, 2, 12), 8)

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
        assert a.derivative_valuation == b.derivative_valuation

    def test_contraction_failure(self):
        # |z - f(x0)| = 1 = |f'(1)| over Q2: t * M2 is not below |f'|
        f = polynomial(Q2, [-2, 0, 1], 12)
        with pytest.raises(ContractionFails):
            fixed_point_solve(HenselProblem(f, el(Q2, 1), zero(Q2), 0, 8))

    def test_one_digit_per_step_from_a_wide_residual(self):
        # X^2 - c from x0 = 2/125, c = x0^2 + 5^-5, on v(x) >= -3: the
        # frozen slope gains one digit per step, from residual valuation
        # -5 to the target 1 in six steps
        x0 = Fraction(2, 125)
        c = x0 * x0 + Fraction(1, 5 ** 5)
        f = polynomial(Q5, [-c, 0, 1], 12)
        cert = fixed_point_solve(HenselProblem(f, el(Q5, 2, 125), zero(Q5), -3, 1))
        assert cert.b_trace == (1, 2, 3, 4, 5, 6)
        assert f.eval(cert.root, 1).is_zero_to_precision

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
        assert rep.bound_N == 3

    def test_unit_constant_gives_zero(self):
        f = polynomial(Q5, [1, 5, 25], 10)
        assert strassmann_bound(f, 0).bound_N == 0

    def test_exp_has_no_zeros(self):
        assert strassmann_bound(exp_series(Q5, 8), 1).bound_N == 0

    def test_from_index_bounds_level_sets(self):
        # max over j >= 1 for E(X) - 1: attained at j = 1 on v(x) >= 1
        E = exp_series(Q5, 8)
        assert strassmann_bound(E, 1, from_index=1).bound_N == 1

    @pytest.mark.parametrize("desc, coeffs, m, bounds", [
        (Q5, [5, 1], 1, (1, 1)),
        (Q5, [5, 1], 0, (1, 1)),
        (Q3, [0, -1, 0, 1], 0, (3, 3)),
        (Q5, [1, 5, 25], 0, (0, 1)),
        (Q5, [25, 5, 1], 1, (2, 2)),
        (Q5, [1, 0, 5], 0, (0, 2)),
    ])
    def test_from_index_zero_and_one(self, desc, coeffs, m, bounds):
        f = polynomial(desc, coeffs, 10)
        assert tuple(strassmann_bound(f, m, from_index=k).bound_N
                     for k in (0, 1)) == bounds

    def test_negative_from_index_is_refused(self):
        # j = -1 would read the last coefficient with weight -m
        with pytest.raises(ValueError, match="from_index must be nonnegative"):
            strassmann_bound(polynomial(Q5, [5, 1], 10), 1, from_index=-1)

    def test_negative_scan_depth_is_refused(self):
        with pytest.raises(ValueError, match="scan_depth must be nonnegative"):
            enumerate_roots(polynomial(Q5, [5, 1], 10), 1, scan_depth=-1)

    def test_zero_scan_depth_is_accepted(self):
        # X - 1 is settled in the whole ball, before any residue class
        certs = enumerate_roots(polynomial(Q5, [-1, 1], 8), 0, scan_depth=0)
        assert [c.root.reduce_mod(8) for c in certs] == [1]

    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_scan_refuses_at_its_depth(self, depth):
        # 3X^3 has a triple root at 0: every class down to the depth is live
        with pytest.raises(UndecidedMultipleRoot, match=f"class at depth {depth} "):
            enumerate_roots(polynomial(Q3, [0, 0, 0, 3], 12), 0, scan_depth=depth)

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

    def test_undetermined_coefficient_is_weighed_by_the_radius(self):
        # 1 + 5X + O(5)X^2 on v(x) >= -1: the constant and 5X both give
        # exponent 0, and O(5)X^2 could reach 1 - 2 = -1
        f = TruncatedSeries(Q5, (el(Q5, 1), el(Q5, 5), zero(Q5, 1)))
        with pytest.raises(TailInconclusive):
            strassmann_bound(f, -1)
        assert strassmann_bound(f, 0).bound_N == 0

    def test_tail_below_the_stored_terms_gives_the_bound(self):
        # 1 + 5X + (v(a_j) >= j for j >= 2) on Z_5: the tail's exponent
        # from j = 2 on is 2, above the constant's 0
        f = TruncatedSeries(Q5, (el(Q5, 1), el(Q5, 5)),
                            TailProfile(2, Fraction(1), Fraction(0)))
        assert strassmann_bound(f, 0).bound_N == 0

    def test_tail_bound_must_dominate_strictly(self):
        # 5 + (v(a_j) >= 0 for j >= 1) on v(x) >= 1: the tail could tie
        # the constant's exponent 1 at j = 1
        f = TruncatedSeries(Q5, (el(Q5, 5, 1, 8),), TailProfile(1, Fraction(0), Fraction(0)))
        with pytest.raises(TailInconclusive, match="does not dominate strictly"):
            strassmann_bound(f, 1)


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

    def test_roots_in_a_ball_larger_than_z_p(self):
        # -2/3 and 2/3 lie in B(0, 3) and in B(0, 9): both balls give the
        # same certificates, to the digits f's 12 carry
        f = polynomial(Q3, [-4, 0, 9], 12)
        for m in (-1, -2):
            certs = enumerate_roots(f, m, target_prec=8)
            assert [(c.root.abs_precision, c.residual_prec) for c in certs] == [(9, 10)] * 2
            assert certs[0].root.agrees_with(el(Q3, -2, 3), 9)
            assert certs[1].root.agrees_with(el(Q3, 2, 3), 9)

    def test_scan_depth_counts_from_the_ball(self):
        # 25 and 50 share the class of 0 on v(x) >= 2 and split one level
        # below it, which scan_depth = 1 reaches
        f = polynomial(Q5, [1250, -75, 1], 12)
        certs = enumerate_roots(f, 2, scan_depth=1, target_prec=8)
        assert sorted(c.root.reduce_mod(4) for c in certs) == [25, 50]
        with pytest.raises(UndecidedMultipleRoot, match="class at depth 0 "):
            enumerate_roots(f, 2, scan_depth=0, target_prec=8)

    def test_certificates_verify_independently(self):
        f = polynomial(Q3, [0, -1, 0, 1], 12)
        for cert in enumerate_roots(f, 0, target_prec=8):
            assert cert.residual_prec >= 8
            assert cert.derivative_valuation is not INFINITY


def test_scan_builds_each_derivative_once(monkeypatch):
    """The residue scan builds f' once per series it enters: X^3 - X, its
    first deflation x^2 - 1, and the linear deflations x + 1 and x - 1,
    whose first class is ruled out (a linear f' is one `mul_integer`).  A
    class solve starts from the scan's f'; 1 and -1, found on x^2 - 1, are
    solved once more on X^3 - X, which builds one each: 6 in all."""
    calls = []
    derivative = TruncatedSeries.derivative

    def counted(self):
        calls.append(self)
        return derivative(self)
    monkeypatch.setattr(TruncatedSeries, "derivative", counted)
    certs = enumerate_roots(polynomial(Q3, [0, -1, 0, 1], 12), 0)
    assert len(certs) == 3
    assert len(calls) == 6


def pin(cert):
    """Every field of a certificate as plain data."""
    r = cert.root
    return (r.valuation, r.digits, r.abs_precision, cert.residual_prec,
            cert.uniqueness_exponent, cert.b_trace, cert.derivative_valuation)


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
                                     "precision 12$"):
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


def counted_evals(monkeypatch, cls=TruncatedSeries):
    """Every (series, point, target) that cls.eval is asked for."""
    calls = []
    ev = cls.eval

    def counted(self, x, target):
        calls.append((self, x, target))
        return ev(self, x, target)
    monkeypatch.setattr(cls, "eval", counted)
    return calls


class TestPrecisionSchedule:
    """Newton evaluates at about 2^i digits on step i: only the residual
    that feeds the last step and the one that ends the loop are asked for
    the full target, where the full-precision loop asked for f and f' at
    every iterate."""

    def test_log_solve_makes_one_full_target_eval(self, monkeypatch):
        # log_solve solves on exp_series, whose eval (E and E' = E) is
        # its own closed form, not TruncatedSeries.eval; it starts at the
        # closed-form log z, where E(x0) serves as f(x0) and f'(x0), and
        # the residual vanishes: no Newton step evaluates E again
        calls = counted_evals(monkeypatch, type(exp_series(Q3, 1)))
        x = log_solve(FieldElement.from_rational(Q3, 10, 7, 300), 300)
        full = [c for c in calls if c[2] >= 300]
        assert len(full) == 1          # 18 before the schedule, 2 from x0 = 0
        assert x.abs_precision == 300

    def test_hensel_makes_two_full_target_evals(self, monkeypatch):
        prob = sqrt_problem(Q7, 2, 3, prec=256, target=256)
        calls = counted_evals(monkeypatch)
        cert = hensel_solve(prob)
        full = [c for c in calls if c[2] >= 256 and c[1] is not prob.x0]
        assert len(full) <= 2
        monkeypatch.undo()
        assert pin(cert) == pin(model.hensel_solve(prob))

    def test_root_below_the_working_precision_keeps_the_residuals_digits(self):
        """Target 64 below the working precision 68: the residual that
        ends the loop proves 64 digits, so the root keeps 64, where the
        full-precision loop returns 68."""
        prob = sqrt_problem(Q7, 2, 3, prec=68, target=64)
        cert = hensel_solve(prob)
        assert cert.root.abs_precision == cert.residual_prec == 64
        assert cert.root.reduce_mod(64) in root_residues([-2, 0, 1], 7, 64)
        ref = model.hensel_solve(prob)
        assert ref.root.abs_precision == 68
        assert cert.root.agrees_with(ref.root, 64)

    def test_faster_convergence_than_planned_ends_early(self):
        """From 0 a step below the working precision lands on the exact
        root 222 of (X - 222)(X - 124)(X - 32) over Q_3: the residual
        vanishes to the working precision 20 and the loop ends there,
        one step before the full-precision loop, which ends at residual
        18 with two wrong digits above it."""
        coeffs = [-222 * 124 * 32, 222 * 124 + 222 * 32 + 124 * 32, -(222 + 124 + 32), 1]
        prob = HenselProblem(polynomial(Q3, coeffs, 20), zero(Q3, 20), zero(Q3, 20), 0, 16)
        cert = hensel_solve(prob)
        assert list(cert.b_trace) == [1, 3]
        assert cert.residual_prec == cert.root.abs_precision == 20
        assert cert.root.reduce_mod(20) == 222
        ref = model.hensel_solve(prob)
        assert ref.residual_prec == 18 and ref.root.reduce_mod(20) != 222

    def test_schedule_when_the_derivative_is_not_a_unit(self, monkeypatch):
        """v(f'(x0)) = 1 (sqrt(17) over Q_2): the schedule runs here too,
        so some value is asked for below the full-precision loop's
        precision, and the certificate is the one that loop gave."""
        f = polynomial(Q2, [-17, 0, 1], 40)
        prob = HenselProblem(f, el(Q2, 1, 1, 40), zero(Q2, 40), 0, 30)
        calls = counted_evals(monkeypatch)
        cert = hensel_solve(prob)
        values = [(x, t) for g, x, t in calls if g is f]
        assert len(values) > 2
        assert any(t < min(40, x.abs_precision) for x, t in values)
        monkeypatch.undo()
        v, _, *rest = pin(cert)
        assert (v, *rest) == (0, 33, 34, 3, (2, 4, 8, 16), 1)
        ref = model.hensel_solve(prob)
        assert pin(cert)[3:] == pin(ref)[3:]
        # the root keeps residual_prec - v(f'(root)) = 33 of the model's 36 digits
        assert cert.root.abs_precision == cert.residual_prec - 1 == 33
        assert cert.root.agrees_with(ref.root, 33)
        assert cert.root.reduce_mod(33) in root_residues([-17, 0, 1], 2, 33)

    def _two_thirds_problem(self):
        return TestPrecisionRefusals()._two_thirds_problem(10)

    def _short_tail_problem(self):
        # X^2 - 2 over Q_7 plus sum_{j>=3} 7^j X^j, whose tail coefficients
        # are known only modulo 7^10: eval at a unit certifies 10 digits
        # when asked for the working precision 12
        def factory(j):
            if j >= 10:
                return FieldElement.zero_to_precision(Q7, 10)
            return FieldElement(Q7, j, 1, 10)
        f = polynomial(Q7, [-2, 0, 1], 12)
        f = TruncatedSeries(Q7, f.coeffs, TailProfile(3, Fraction(1), Fraction(0)), factory)
        return HenselProblem(f, el(Q7, 3), zero(Q7), 0, 10)

    @pytest.mark.parametrize("make", ("_two_thirds_problem", "_short_tail_problem"))
    @pytest.mark.parametrize("solve", ("hensel_solve", "fixed_point_solve"))
    def test_short_certified_evals_end(self, monkeypatch, make, solve):
        """Where eval certifies less than it is asked for, the loop takes
        what eval gives and ends with the full-precision loop's
        certificate, in a bounded number of evals per step."""
        prob = getattr(self, make)()
        calls = counted_evals(monkeypatch)
        cert = globals()[solve](prob)
        steps = len(cert.b_trace)
        per_step = math.ceil(math.log2(prob.f.working_precision)) + 2
        assert len(calls) <= (steps + 1) * per_step
        monkeypatch.undo()
        assert pin(cert) == pin(getattr(model, solve)(prob))


# -- oracle tests: every claimed digit against exhaustive residue search --

def _vp(p, n):
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v if n else math.inf


def _ev(coeffs, x):
    return sum(a * x ** j for j, a in enumerate(coeffs))


def root_residues(coeffs, p, k):
    """Residues modulo p^k of the simple roots in Z_p of the integer
    polynomial sum coeffs[j] X^j, by exhaustive search.  x mod p^k is one
    iff e = v(f'(x)) < k and v(f(x)) >= k + e (Hensel both ways), and
    f = 0 mod p^j at every residue of a root modulo p^j, so the search
    extends only those, one digit at a time."""
    deriv = [j * a for j, a in enumerate(coeffs)][1:]
    level = [0]
    for j in range(1, k + 1):
        level = [y for x in level for y in range(x, p ** j, p ** (j - 1))
                 if _ev(coeffs, y) % p ** j == 0]
    out = set()
    for x in level:
        e = _vp(p, _ev(deriv, x))
        if e < k and _vp(p, _ev(coeffs, x)) >= k + e:
            out.add(x)
    return out


# (p, integer coefficients lowest first, working precision, target);
# every root has v(f'(root)) > 0
PROVEN_CASES = {
    "X^2 - 9 over Q_3": (3, [-9, 0, 1], 10, 6),
    "sqrt(17) over Q_2 at 16": (2, [-17, 0, 1], 18, 16),
    "sqrt(17) over Q_2 at 18": (2, [-17, 0, 1], 22, 18),
    "sqrt(17) over Q_2 at 64": (2, [-17, 0, 1], 68, 64),
    "X^2 - 49 over Q_2": (2, [-49, 0, 1], 12, 8),
    "X^2 - 81 over Q_2": (2, [-81, 0, 1], 12, 8),
    "X^2 - 3^2 4 over Q_3": (3, [-36, 0, 1], 10, 6),
    "X^2 - 3^2 16 over Q_3": (3, [-144, 0, 1], 10, 6),
    "X^2 - 5^2 4 over Q_5": (5, [-100, 0, 1], 10, 6),
    "X^2 - 7^2 9 over Q_7": (7, [-441, 0, 1], 10, 6),
    "roots 1, 10, 2 over Q_3": (3, [-20, 32, -13, 1], 10, 6),
    "roots 1, 28, 2 over Q_3": (3, [-56, 86, -31, 1], 10, 6),
    "roots 1, 26, 3 over Q_5": (5, [-78, 107, -30, 1], 10, 6),
    "roots 2, 52, 4 over Q_5": (5, [-416, 320, -58, 1], 10, 6),
}


class TestProvenDigits:
    """A root keeps the residual_prec - v(f'(root)) digits its residual
    proves, and at least the target, when v(f'(root)) > 0."""

    @pytest.mark.parametrize("name", PROVEN_CASES)
    def test_enumerated_roots_are_right_at_every_digit(self, name):
        p, coeffs, W, target = PROVEN_CASES[name]
        certs = enumerate_roots(polynomial(Qp(p), coeffs, W), 0, target_prec=target)
        assert len(certs) == len(root_residues(coeffs, p, target))
        for c in certs:
            k = c.root.abs_precision
            assert k >= target
            assert c.root.reduce_mod(k) in root_residues(coeffs, p, k)

    @pytest.mark.parametrize("name", PROVEN_CASES)
    def test_solved_roots_are_right_at_every_digit(self, name):
        """hensel_solve from x0 = r + p^(e+1), r a root's residue modulo
        p^(e+1), e = v(f'(r))."""
        p, coeffs, W, target = PROVEN_CASES[name]
        deriv = [j * a for j, a in enumerate(coeffs)][1:]
        F = Qp(p)
        for r in root_residues(coeffs, p, target):
            e = _vp(p, _ev(deriv, r))
            x0 = r % p ** (e + 1) + p ** (e + 1)
            cert = hensel_solve(HenselProblem(polynomial(F, coeffs, W), el(F, x0, 1, W),
                                              zero(F, W), 0, target))
            k = cert.root.abs_precision
            assert k == min(W, cert.residual_prec - e) >= target
            assert cert.root.reduce_mod(k) in root_residues(coeffs, p, k)
            assert cert.root.reduce_mod(target) == r

    def test_sqrt17_over_q2_reads_9961(self):
        f = polynomial(Q2, [-17, 0, 1], 18)
        roots = sorted(c.root.reduce_mod(16) for c in enumerate_roots(f, 0, target_prec=16))
        assert roots == [9961, 2 ** 16 - 9961]

    def test_target_plus_derivative_valuation_beyond_working_precision(self):
        """X^2 - 9 over Q_3 known modulo 3^6, target 6: v(f'(x0)) = 1, so
        the residual would have to vanish modulo 3^7."""
        f = polynomial(Q3, [-9, 0, 1], 6)
        prob = HenselProblem(f, el(Q3, 6, 1, 6), zero(Q3, 6), 0, 6)
        for solve in (hensel_solve, fixed_point_solve):
            with pytest.raises(PrecisionExhausted,
                               match=r"target precision 6 exceeds working precision 6 "
                                     r"less v\(f'\(x0\)\) = 1"):
                solve(prob)
        with pytest.raises(PrecisionExhausted):
            enumerate_roots(f, 0, target_prec=6)


# (field, coefficients lowest first and the exact roots, as element
# literals, working precision W, e = v(f'(root))): two roots at distance
# q^-e, so every target up to e puts both in one residue class
CLOSE_ROOTS = {
    "(X - 1)(X - 126) over Q_5": (Q5, ["126", "-127", "1"], ["1", "126"], 12, 3),
    "(X - 2)(X - 83) over Q_3": (Q3, ["166", "-85", "1"], ["2", "83"], 12, 4),
    "(X - 1)(X - 1 - T^3) over F_5((T))": (
        laurent_field(5), ["1 + 1*T^3", "3 + 4*T^3", "1"], ["1", "1 + 1*T^3"], 12, 3),
}


class TestCloseRoots:
    """Two roots closer than the target are both found: the in-class solve
    carries each root past the target before it is deflated out, and two
    certificates are one root only when they agree to every digit both
    prove."""

    @pytest.mark.parametrize("name", CLOSE_ROOTS)
    def test_every_target_finds_both_roots(self, name):
        F, coeffs, exact, W, e = CLOSE_ROOTS[name]
        f = TruncatedSeries(F, tuple(parse_element(c, F, W) for c in coeffs))
        exact = [parse_element(r, F, 4 * W) for r in exact]
        for target in range(1, W - e + 1):
            certs = enumerate_roots(f, 0, target_prec=target)
            assert len(certs) == 2, target
            matched = set()
            for c in certs:
                k = c.root.abs_precision
                assert k >= target
                matched |= {i for i, r in enumerate(exact) if c.root.agrees_with(r, k)}
            assert matched == {0, 1}, target

    @pytest.mark.parametrize("target", range(-2, 13))
    def test_square_roots_of_six_at_any_target(self, target):
        certs = enumerate_roots(polynomial(Q5, [-6, 0, 1], 12), 0, target_prec=target)
        assert len(certs) == 2
        for c in certs:
            k = c.root.abs_precision
            assert k >= max(target, 1)
            assert c.root.reduce_mod(k) in root_residues([-6, 0, 1], 5, k)


@pytest.mark.parametrize("p,coeffs,solves", [
    (7, [-1, 0, 0, 1], 3),      # X^3 - 1: every root found on X^3 - 1
    (3, [0, -1, 0, 1], 5),      # X^3 - X: 1 and -1 found on x^2 - 1, solved again
])
def test_enumeration_solves_each_root_once_on_f(monkeypatch, p, coeffs, solves):
    """A root found on f keeps its certificate; one found on a deflated
    series is solved once more on f, since its certificate states the
    deflated series' derivative."""
    calls = []
    solve = rootfind._solve

    def counted(problem, state, newton):
        calls.append(problem)
        return solve(problem, state, newton)
    monkeypatch.setattr(rootfind, "_solve", counted)
    certs = enumerate_roots(polynomial(Qp(p), coeffs, 12), 0)
    assert len(certs) == 3
    assert len(calls) == solves


@pytest.mark.parametrize("p,coeffs,evals", [
    (7, [-1, 0, 0, 1], 32),
    (3, [0, -1, 0, 1], 27),
])
def test_class_solve_starts_from_the_scan_evaluations(monkeypatch, p, coeffs, evals):
    """A class solve does not evaluate f and f' at the class center again:
    Newton's first step reads the values the class visit computed, one
    pair fewer per root found in the scan than a solve from scratch."""
    calls = []
    evaluate = TruncatedSeries.eval

    def counted(self, x, target_prec):
        calls.append(target_prec)
        return evaluate(self, x, target_prec)
    monkeypatch.setattr(TruncatedSeries, "eval", counted)
    certs = enumerate_roots(polynomial(Qp(p), coeffs, 12), 0)
    assert len(certs) == 3
    assert len(calls) == evals


# -- differential: the scan and the solver on balls of every radius --

@st.composite
def linear_factors_case(draw):
    """(p, f, roots, m, W): f the product of 1-3 linear factors den X -
    num over Q_p, p in {3, 5, 7}, known to W digits, whose roots num/den
    have valuation -1 to 1, and a ball v(x) >= m, m from -3 to 2."""
    p = draw(st.sampled_from((3, 5, 7)))
    unit = st.integers(1, 4 * p).filter(lambda u: u % p)
    roots = []
    for _ in range(draw(st.integers(1, 3))):
        r = Fraction(draw(unit) * draw(st.sampled_from((-1, 1))), draw(unit))
        roots.append(r * Fraction(p) ** draw(st.integers(-1, 1)))
    coeffs = [1]
    for r in roots:
        # times (den X - num), lowest coefficient first
        coeffs = [a * r.denominator - b * r.numerator
                  for a, b in zip([0] + coeffs, coeffs + [0])]
    W = draw(st.integers(8, 16))
    return p, polynomial(Qp(p), coeffs, W), sorted(set(roots)), draw(st.integers(-3, 2)), W


def _in_ball(p, r, m):
    """v(r) >= m for a rational r."""
    return r == 0 or _vp(p, r.numerator) - _vp(p, r.denominator) >= m


def _agrees(cert, p, r):
    """cert.root is r at every digit it claims."""
    k = cert.root.abs_precision
    return cert.root.agrees_with(el(Qp(p), r.numerator, r.denominator, k), k)


@settings(max_examples=300, deadline=None)
@given(linear_factors_case())
def test_scan_finds_the_roots_in_the_ball_at_every_radius(case):
    """enumerate_roots(f, m) at target 4 either returns the roots of f of
    valuation >= m, one certificate each, at least 4 digits each and every
    claimed digit right, or refuses with a typed error.  The ball is larger than Z_p for m < 0:
    the scan once pruned live classes there and returned too few."""
    p, f, roots, m, _ = case
    try:
        certs = enumerate_roots(f, m, target_prec=4)
    except UltrametricError:
        return
    want = [r for r in roots if _in_ball(p, r, m)]
    assert len(certs) == len(want), (certs, want)
    assert all(c.root.abs_precision >= 4 for c in certs)
    assert sorted(sorted(i for i, r in enumerate(want) if _agrees(c, p, r))
                  for c in certs) == [[i] for i in range(len(want))]


@settings(max_examples=300, deadline=None)
@given(linear_factors_case(), st.data())
def test_hensel_at_every_radius_lands_on_a_root_in_the_ball(case, data):
    """hensel_solve from a point near a root (or from any point of the
    ball) either refuses with a typed error or returns a root of f in
    the ball v(x) >= m, every claimed digit right, at the distance
    q^-uniqueness_exponent its certificate states: the check of h_single,
    whose M1' is M1 one radius factor looser."""
    p, f, roots, m, W = case
    F = Qp(p)
    near = data.draw(st.sampled_from(roots + [None]))
    if near is None:
        x0 = data.draw(st.integers(0, p ** 4)) * Fraction(p) ** m
    else:
        x0 = near + data.draw(st.integers(0, p - 1)) * Fraction(p) ** data.draw(st.integers(m, m + 3))
    if not _in_ball(p, x0, m):
        return
    problem = HenselProblem(f, el(F, x0.numerator, x0.denominator, W), zero(F, W), m, 4)
    try:
        cert = hensel_solve(problem)
    except UltrametricError:
        return
    hits = [r for r in roots if _agrees(cert, p, r)]
    assert hits and all(_in_ball(p, r, m) for r in hits), (cert, roots)
    assert any(_vp(p, (r - x0).numerator) - _vp(p, (r - x0).denominator)
               >= cert.uniqueness_exponent for r in hits), (cert, roots)
