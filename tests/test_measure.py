import random
from fractions import Fraction

import pytest

from dvfield.errors import (DomainError, InsufficientPrecision,
                            PrecisionExhausted)
from dvfield.localfield import FieldElement, Qp, laurent_field, FieldDescriptor, FieldKind
from dvfield.measure import (BallRelation, BallSpec, ContentEstimate,
                             DimensionValue, admissible_ball, ball_relation,
                             digit_set_analysis, haar_union_measure,
                             hausdorff_alpha, image_measure,
                             maximal_disjointify, scale_family)
from dvfield.series import polynomial

Q2 = Qp(2)
Q3 = Qp(3)
Q5 = Qp(5)
Q7 = Qp(7)


def el(desc, num, den=1, prec=10):
    return FieldElement.from_rational(desc, num, den, prec)


def ball(desc, num, j, prec=10):
    return BallSpec.make(el(desc, num, 1, prec), j)


def residues(b: BallSpec, depth: int):
    """All residues mod q^depth inside a ball with j <= depth and v(c) >= 0."""
    q = b.descriptor.q
    j = max(b.radius_exponent, 0)
    c = 0 if j == 0 or b.center.is_zero_to_precision else b.center.reduce_mod(j)
    return set(range(c, q**depth, q**j))


class TestBallSpec:
    def test_canonical_centers_make_equal_balls_equal(self):
        b1 = ball(Q5, 7, 1)
        b2 = ball(Q5, 7 + 5 * 3, 1)
        assert b1 == b2

    def test_measure(self):
        assert ball(Q5, 0, 2).measure() == Fraction(1, 25)
        assert ball(Q5, 0, 0).measure() == 1
        assert ball(Q5, 0, -1).measure() == 5

    def test_open_ball_is_next_closed_ball(self):
        assert BallSpec.from_open(el(Q5, 3), 1) == ball(Q5, 3, 2)

    def test_center_needs_enough_precision(self):
        with pytest.raises(InsufficientPrecision):
            BallSpec.make(el(Q5, 1, 1, 2), 5)


class TestBallRelation:
    def test_examples(self):
        assert ball_relation(ball(Q5, 1, 1), ball(Q5, 2, 1)) is BallRelation.DISJOINT
        assert ball_relation(ball(Q5, 1, 1), ball(Q5, 6, 2)) is BallRelation.SECOND_INSIDE_FIRST
        assert ball_relation(ball(Q5, 6, 2), ball(Q5, 1, 1)) is BallRelation.FIRST_INSIDE_SECOND
        assert ball_relation(ball(Q5, 6, 2), ball(Q5, 1 + 25, 2)) is BallRelation.DISJOINT

    def test_matches_residue_enumeration(self):
        rng = random.Random(19)
        depth = 4
        for _ in range(200):
            p = rng.choice([3, 5])
            desc = Qp(p)
            b1 = ball(desc, rng.randrange(0, p**3), rng.randrange(0, depth))
            b2 = ball(desc, rng.randrange(0, p**3), rng.randrange(0, depth))
            r1, r2 = residues(b1, depth), residues(b2, depth)
            rel = ball_relation(b1, b2)
            if rel is BallRelation.DISJOINT:
                assert not (r1 & r2)
            elif rel is BallRelation.EQUAL:
                assert r1 == r2
            elif rel is BallRelation.FIRST_INSIDE_SECOND:
                assert r1 <= r2
            else:
                assert r2 <= r1

    def test_undecidable_raises(self):
        # bypass the canonical constructor: center known only mod 5^2
        b1 = BallSpec(FieldElement.zero_to_precision(Q5, 2), 3)
        b2 = ball(Q5, 0, 5)
        with pytest.raises(InsufficientPrecision):
            ball_relation(b1, b2)


class TestUnionMeasure:
    def test_two_disjoint_unit_fifths(self):
        fam = [ball(Q5, 1, 1), ball(Q5, 2, 1)]
        assert haar_union_measure(fam) == Fraction(2, 5)

    def test_nested_balls_collapse(self):
        fam = [ball(Q5, 0, 0), ball(Q5, 3, 1), ball(Q5, 7, 2)]
        assert maximal_disjointify(fam) == (ball(Q5, 0, 0),)
        assert haar_union_measure(fam) == 1

    def test_all_residues_tile_the_unit_ball(self):
        fam = [ball(Q7, r, 1) for r in range(7)]
        assert haar_union_measure(fam) == 1

    def test_duplicates_counted_once(self):
        fam = [ball(Q5, 1, 1), ball(Q5, 1 + 5, 1), ball(Q5, 1, 1)]
        assert haar_union_measure(fam) == Fraction(1, 5)

    def test_matches_residue_counting(self):
        rng = random.Random(23)
        depth = 4
        for _ in range(200):
            p = rng.choice([3, 5])
            desc = Qp(p)
            fam = [ball(desc, rng.randrange(0, p**3), rng.randrange(0, depth))
                   for _ in range(rng.randrange(1, 7))]
            covered = set()
            for b in fam:
                covered |= residues(b, depth)
            assert haar_union_measure(fam) == Fraction(len(covered), p**depth)

    def test_laurent_family(self):
        L3 = laurent_field(3)
        fam = [BallSpec.make(el(L3, 1, 1, 6), 1),
               BallSpec.make(el(L3, 2, 1, 6), 1)]
        assert haar_union_measure(fam) == Fraction(2, 3)


class TestScale:
    def test_ratio_and_balls(self):
        fam = [ball(Q5, 1, 1), ball(Q5, 2, 1)]
        scaled, ratio = scale_family(el(Q5, 5), fam)
        assert ratio == Fraction(1, 5)
        assert haar_union_measure(scaled) == Fraction(2, 25)
        assert all(b.radius_exponent == 2 for b in scaled)

    def test_unit_scaling_preserves_measure(self):
        fam = [ball(Q5, 1, 1), ball(Q5, 7, 2)]
        scaled, ratio = scale_family(el(Q5, 3), fam)
        assert ratio == 1
        assert haar_union_measure(scaled) == haar_union_measure(fam)

    def test_rejects_indistinguishable_zero(self):
        with pytest.raises(DomainError):
            scale_family(FieldElement.zero_to_precision(Q5, 4), [ball(Q5, 0, 1)])


class TestDimension:
    def test_full_field_has_dimension_one(self):
        assert hausdorff_alpha(Q5).rational_value() == 1
        assert hausdorff_alpha(Q2).rational_value() == 1

    def test_snowflake_halves(self):
        assert hausdorff_alpha(Q5, 2).rational_value() == Fraction(1, 2)

    def test_coarser_ball_chain(self):
        desc = FieldDescriptor(FieldKind.PADIC, 5, rho1_exponent=2)
        assert hausdorff_alpha(desc).rational_value() == Fraction(1, 2)

    def test_irrational_ratio_has_no_rational_value(self):
        dv = DimensionValue(2, 3)
        assert dv.rational_value() is None
        assert 0.63 < dv.approx() < 0.631

    def test_power_ratios_are_exact(self):
        assert DimensionValue(9, 3).rational_value() == 2
        assert DimensionValue(3, 9).rational_value() == Fraction(1, 2)
        assert DimensionValue(1, 7).rational_value() == 0


class TestDigitSets:
    def test_cantor_like_set_over_q3(self):
        beta = DimensionValue(2, 3)
        report = digit_set_analysis(3, [0, 2], 5, beta)
        assert report.ball_count == 32
        assert report.content_estimate.equals_one()
        assert abs(report.dimension.approx() - 0.6309297535714574) < 1e-12

    def test_box_counts_are_power_of_set_size(self):
        for n in range(1, 9):
            report = digit_set_analysis(3, [0, 2], n, Fraction(1, 2))
            assert report.ball_count == 2**n
            codes = report.cover_codes
            assert len(set(codes)) == len(codes)
            assert all(all(d in (0, 2) for d in _digits3(c, n)) for c in codes)

    def test_content_signs(self):
        low = digit_set_analysis(3, [0, 2], 6, Fraction(1))
        assert low.content_estimate.compare_to_one() == -1
        high = digit_set_analysis(3, [0, 2], 6, Fraction(1, 2))
        assert high.content_estimate.compare_to_one() == 1

    def test_depth_monotonicity(self):
        shallow = digit_set_analysis(3, [0, 2], 2, Fraction(1)).content_estimate
        deep = digit_set_analysis(3, [0, 2], 8, Fraction(1)).content_estimate
        assert deep.compare(shallow) == -1        # shrinking content
        assert shallow.compare(deep) == 1

    def test_full_digit_set_is_the_unit_ball(self):
        report = digit_set_analysis(5, range(5), 3, Fraction(1))
        assert report.ball_count == 125
        assert report.content_estimate.equals_one()
        assert report.dimension.rational_value() == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            digit_set_analysis(3, [], 3, 1)
        with pytest.raises(DomainError):
            digit_set_analysis(3, [0, 3], 3, 1)
        with pytest.raises(DomainError):
            digit_set_analysis(3, [0, 1], 0, 1)

    def test_foreign_scale_base_rejected(self):
        with pytest.raises(DomainError):
            digit_set_analysis(3, [0, 2], 3, DimensionValue(2, 5))


def _digits3(code, n):
    out = []
    for _ in range(n):
        code, d = divmod(code, 3)
        out.append(d)
    return out


class TestImage:
    def test_scaling_map(self):
        f = polynomial(Q5, [1, 5], 12)       # x -> 1 + 5x, |f'| = 1/5
        img = admissible_ball(f, ball(Q5, 0, 0, prec=12))
        assert img is not None
        assert img.radius_exponent == 1
        assert img.center.reduce_mod(1) == 1

    def test_identity_image_measure(self):
        f = polynomial(Q5, [0, 1], 12)
        b = ball(Q5, 0, 0, prec=12)
        sub = [ball(Q5, 1, 1, prec=12), ball(Q5, 2, 1, prec=12)]
        assert image_measure(f, b, sub) == Fraction(2, 5)

    def test_square_on_a_unit_ball(self):
        # on B(1, 1/5) the square map is a similarity with |f'| = 1
        f = polynomial(Q5, [0, 0, 1], 12)
        b = ball(Q5, 1, 1, prec=12)
        img = admissible_ball(f, b)
        assert img == ball(Q5, 1, 1, prec=12)
        # surjectivity check by residue enumeration mod 5^3
        image = {pow(x, 2, 125) for x in range(1, 125, 5)}
        target = set(range(1, 125, 5))
        assert image == target
        assert image_measure(f, b, [b]) == Fraction(1, 5)

    def test_contracting_derivative_scales_measure(self):
        f = polynomial(Q5, [0, 5, 25], 12)   # |f'| = 1/5 on the unit ball
        b = ball(Q5, 0, 0, prec=12)
        assert image_measure(f, b, [b]) == Fraction(1, 5)
        sub = [ball(Q5, 1, 1, prec=12)]
        assert image_measure(f, b, sub) == Fraction(1, 25)

    def test_not_certified_when_second_order_dominates(self):
        # over Q2 the square map halves distances: t*M2 < |f'| fails
        f = polynomial(Q2, [0, 0, 1], 12)
        assert admissible_ball(f, ball(Q2, 1, 1, prec=12)) is None

    def test_center_finer_than_the_series_precision(self):
        # the center is lifted to precision 7, f' is known only modulo 5^4
        f = polynomial(Q5, [0, 1, 1], 4)
        with pytest.raises(PrecisionExhausted):
            admissible_ball(f, ball(Q5, 1, 6))

    def test_subfamily_must_be_inside(self):
        f = polynomial(Q5, [0, 1], 12)
        b = ball(Q5, 1, 1, prec=12)
        with pytest.raises(DomainError):
            image_measure(f, b, [ball(Q5, 2, 1, prec=12)])

    def test_uncertified_measure_raises(self):
        f = polynomial(Q2, [0, 0, 1], 12)
        b = ball(Q2, 1, 1, prec=12)
        with pytest.raises(DomainError):
            image_measure(f, b, [b])
