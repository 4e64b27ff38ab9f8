import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import disjoint_model
from dvfield.errors import DomainError, InsufficientPrecision
from dvfield.localfield import FieldElement, Qp, laurent_field
from dvfield import measure
from dvfield.measure import (BallRelation, BallSpec, ContentEstimate,
                             DimensionValue, admissible_ball, ball_relation,
                             digit_set_analysis, haar_union_measure,
                             hausdorff_alpha, image_measure,
                             maximal_disjointify, scale_family)
from dvfield.series import TruncatedSeries, polynomial

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

    def test_spread_family_makes_no_pairwise_comparison(self, monkeypatch):
        """2000 balls in 80 disjoint anchors over Q_5: the scan makes no
        ball_relation call and at most n * (distinct radii + 1) center
        truncations, so an O(n^2) pairwise scan cannot come back."""
        rng = random.Random(4)
        anchors = rng.sample(range(5 ** 3), 80)
        spec = [(a, 3) for a in anchors]
        while len(spec) < 2000:
            j = rng.randint(3, 6)
            spec.append((rng.choice(anchors) + 5 ** 3 * rng.randrange(5 ** (j - 3)), j))
        fam = [ball(Q5, code, j, prec=j) for code, j in spec]
        calls = {"relation": 0, "truncate": 0}
        truncate = FieldElement.truncate

        def counted_truncate(self, prec):
            calls["truncate"] += 1
            return truncate(self, prec)

        def counted_relation(b1, b2):
            calls["relation"] += 1
            return ball_relation(b1, b2)
        monkeypatch.setattr(FieldElement, "truncate", counted_truncate)
        monkeypatch.setattr(measure, "ball_relation", counted_relation)
        got = haar_union_measure(fam)
        monkeypatch.undo()
        assert calls["relation"] == 0
        radii = {j for _, j in spec}
        assert calls["truncate"] <= len(fam) * (len(radii) + 1)
        assert got == Fraction(80, 5 ** 3)      # every other ball is in an anchor

    @pytest.mark.parametrize("desc", [Q5, laurent_field(3)])
    def test_scan_builds_no_element(self, monkeypatch, desc):
        """400 balls in 16 anchors: with element construction and
        truncation made to raise once the family is built, the scan and the
        union measure still give the pairwise model's answer, so no
        element is made per (ball, radius) pair."""
        rng = random.Random(19)
        anchors = [[rng.randrange(desc.q) for _ in range(4)] for _ in range(16)]
        fam = []
        for _ in range(400):
            j = rng.randint(4, 8)
            digits = rng.choice(anchors) + [rng.randrange(desc.q) for _ in range(j - 4)]
            fam.append(BallSpec.make(FieldElement.from_digits(desc, 0, digits, j), j))
        want = disjoint_model.maximal_disjointify(fam)
        measure_want = sum((b.measure() for b in want), Fraction(0))

        def refuse(*args):
            raise AssertionError("an element was built")
        monkeypatch.setattr(FieldElement, "truncate", refuse)
        monkeypatch.setattr(FieldElement, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="element was built"):
            FieldElement.zero_to_precision(desc, 1)
        assert maximal_disjointify(fam) == want
        assert haar_union_measure(fam) == measure_want
        monkeypatch.undo()
        assert len(want) < 50 < len(set(fam))

    @pytest.mark.parametrize("desc", [Q5, laurent_field(3)])
    def test_union_reads_no_digits(self, monkeypatch, desc):
        """Ordering the balls and finding the maximal ones work on the
        centers' (valuation, unit, precision); no center's digits are
        unpacked."""
        rng = random.Random(6)
        fam = [ball(desc, rng.randrange(1, desc.q ** 6), rng.randint(1, 6))
               for _ in range(60)]
        want = haar_union_measure(fam)
        reads = []
        digits = FieldElement.digits
        monkeypatch.setattr(FieldElement, "digits",
                            property(lambda x: reads.append(x) or digits.fget(x)))
        assert haar_union_measure(fam) == want
        assert maximal_disjointify(fam) == maximal_disjointify(reversed(fam))
        assert reads == []

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

    @pytest.mark.parametrize("a", [0, Fraction(-1, 2)])
    def test_snowflake_exponent_must_be_positive(self, a):
        with pytest.raises(DomainError, match="snowflake exponent must be positive"):
            hausdorff_alpha(Q5, a)

    def test_irrational_ratio_has_no_rational_value(self):
        dv = DimensionValue(2, 3)
        assert dv.rational_value() is None
        assert 0.63 < dv.approx() < 0.631
        assert DimensionValue(12, 18).rational_value() is None

    def test_power_ratios_are_exact(self):
        assert DimensionValue(9, 3).rational_value() == 2
        assert DimensionValue(3, 9).rational_value() == Fraction(1, 2)
        assert DimensionValue(1, 7).rational_value() == 0
        # powers of a common base, neither a power of the other
        assert DimensionValue(4, 8).rational_value() == Fraction(2, 3)
        assert DimensionValue(8, 4).rational_value() == Fraction(3, 2)


class TestDigitSets:
    def test_cantor_like_set_over_q3(self):
        beta = DimensionValue(2, 3)
        report = digit_set_analysis(3, [0, 2], 5, beta)
        assert report.ball_count == 32
        assert report.content_estimate.compare_to_one() == 0
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
        # one digit at its own dimension, log 1 / log 3 = 0: 1^6 * 1 is 1
        point = digit_set_analysis(3, [0], 6, DimensionValue(1, 3))
        assert point.content_estimate.compare_to_one() == 0

    def test_content_approx_saturates(self):
        # beyond the float range the estimate reads inf, below it 0.0
        huge = digit_set_analysis(3, [0, 2], 2000, 0).content_estimate
        assert huge.compare_to_one() == 1 and huge.approx() == math.inf
        tiny = digit_set_analysis(3, [0], 2000, 1).content_estimate
        assert tiny.compare_to_one() == -1 and tiny.approx() == 0.0

    def test_content_at_a_tiny_beta_builds_no_huge_power(self):
        start = time.perf_counter()
        report = digit_set_analysis(5, [0, 1, 3], 3, Fraction(1, 10**8))
        assert report.content_estimate.compare_to_one() == 1
        assert time.perf_counter() - start < 1

    def test_content_near_one_is_exact_or_refused(self):
        # log 4 / log 2 = 2 is rational: decided exactly however close beta is
        near_two = Fraction(2 * 10**20 + 1, 10**20)
        assert ContentEstimate(4, 2, 3, near_two.numerator, near_two.denominator,
                               2).compare_to_one() == -1
        # log 3 / log 5 is irrational: a beta within the float margin of it
        # whose powers are too long to build is refused
        rho = Fraction(math.log(3) / math.log(5))
        with pytest.raises(DomainError, match="too close to 1"):
            digit_set_analysis(5, [0, 1, 3], 3, rho).content_estimate.compare_to_one()

    def test_full_digit_set_is_the_unit_ball(self):
        report = digit_set_analysis(5, range(5), 3, Fraction(1))
        assert report.ball_count == 125
        assert report.content_estimate.compare_to_one() == 0
        assert report.dimension.rational_value() == 1

    def test_cover_codes_are_every_digit_string_ascending(self):
        for p, digits, depth in ((3, [0, 2], 4), (5, [4, 1, 0], 3), (7, [3], 2)):
            codes = digit_set_analysis(p, digits, depth, 1).cover_codes
            expected = sorted(sum(d * p ** i for i, d in enumerate(word))
                              for word in itertools.product(digits, repeat=depth))
            assert codes == tuple(expected)

    def test_deep_cover_is_counted_not_built(self):
        """4^12 = 16.7 M codes: counted in closed form, none built unless
        cover_codes is read."""
        tracemalloc.start()
        try:
            report = digit_set_analysis(5, [0, 1, 2, 4], 12, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ball_count == 4 ** 12
        assert report.content_estimate.compare_to_one() == -1
        assert peak < 64 * 1024

    def test_huge_depth_is_counted_only_when_read(self):
        # 3^(10^12) has about 4.8 * 10^11 digits; content and dimension
        # never need it
        start = time.perf_counter()
        report = digit_set_analysis(3, [0, 1, 2], 10**12, 1)
        assert report.content_estimate.compare_to_one() == 0
        assert report.dimension.rational_value() == 1
        assert time.perf_counter() - start < 1
        assert "ball_count" not in vars(report)

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

    def test_image_radius_at_the_working_precision_is_answered(self):
        # x -> 1 + 25x on B(0, 5^-2): the image radius exponent is 2 + 2
        f = polynomial(Q5, [1, 25], 4)
        assert admissible_ball(f, ball(Q5, 0, 2, prec=12)) == ball(Q5, 1, 4, prec=12)

    def test_image_radius_past_the_working_precision_is_refused(self):
        f = polynomial(Q5, [1, 25], 3)
        with pytest.raises(InsufficientPrecision,
                           match="image radius exponent 4 exceeds working precision 3"):
            admissible_ball(f, ball(Q5, 0, 2, prec=12))

    def test_image_center_is_asked_only_to_the_image_radius(self):
        # x -> x/5 maps B(0, 5^-2) onto B(0, 5^-1): f(center) is needed
        # modulo 5^1, though x/5 at a center known modulo 5^3 gives 5^2
        f = polynomial(Q5, [0, Fraction(1, 5)], 3)
        b = ball(Q5, 0, 2)
        assert admissible_ball(f, b) == ball(Q5, 0, 1)
        assert image_measure(f, b, [b]) == Fraction(1, 5)

    def test_center_finer_than_the_series_precision(self):
        # the center is lifted to precision 7, f' is known only modulo 5^4:
        # enough for v(f'(1)) = 0, not for the image center modulo 5^6
        f = polynomial(Q5, [0, 1, 1], 4)
        with pytest.raises(InsufficientPrecision,
                           match="image radius exponent 6 exceeds working precision 4"):
            admissible_ball(f, ball(Q5, 1, 6))

    def test_derivative_is_read_only_to_its_valuation(self):
        # f'(5) = 1 + 2/5 * 5 = 3 is known modulo 5^3 only, below the
        # center's 5^4; x + x^2/5 maps B(5, 5^-2) onto B(10, 5^-2)
        f = polynomial(Q5, [0, 1, Fraction(1, 5)], 4)
        b = ball(Q5, 5, 2)
        assert admissible_ball(f, b) == ball(Q5, 10, 2)
        assert image_measure(f, b, [b]) == Fraction(1, 25)

    def test_image_measure_needs_no_image_center(self):
        # the identity at working precision 3 on B(0, 5^-5): the measure
        # reads v(f') = 0 alone, the image ball needs f(0) modulo 5^5
        f = polynomial(Q5, [0, 1], 3)
        b = ball(Q5, 0, 5)
        assert image_measure(f, b, [b]) == Fraction(1, 3125)
        with pytest.raises(InsufficientPrecision,
                           match="image radius exponent 5 exceeds working precision 3"):
            admissible_ball(f, b)

    def test_center_known_below_its_radius_is_refused(self):
        f = polynomial(Q5, [0, 1], 12)
        b = BallSpec(el(Q5, 1, 1, prec=2), 3)
        for call in (lambda: admissible_ball(f, b), lambda: image_measure(f, b, [])):
            with pytest.raises(InsufficientPrecision,
                               match="center precision 2 below radius exponent 3"):
                call()

    def test_image_measure_evaluates_only_the_derivative(self, monkeypatch):
        calls = []
        eval_ = TruncatedSeries.eval
        monkeypatch.setattr(TruncatedSeries, "eval",
                            lambda f, x, n: calls.append(n) or eval_(f, x, n))
        f = polynomial(Q5, [0, 5, 25], 12)
        b = ball(Q5, 0, 0, prec=12)
        assert image_measure(f, b, [b]) == Fraction(1, 5)
        assert len(calls) == 1

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
