"""Fuzzing of the prefix-hash maximal-ball scan against the pairwise model.

Fields: Q_p and F_q((T)) for q in {2, 3, 5, 7}.  Families mix fresh
balls, duplicates, balls of an existing ball's radius and chains of
nested balls; centers may have negative valuation, radius exponents may
be negative, and some centers carry digits beyond the radius (balls built
directly, not through `BallSpec.make`).  Seeded families of about 1000
balls in n // 25 anchors, the size of the benchmark's largest unions,
are checked the same way.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disjoint_model as model
from dvfield.errors import DomainError, InsufficientPrecision
from dvfield.localfield import FieldElement, Qp, laurent_field
from dvfield.measure import (BallSpec, haar_union_measure, image_measure,
                             maximal_disjointify)
from dvfield.series import polynomial

SMALL = [(q, padic) for q in (2, 3, 5, 7) for padic in (True, False)]
FUZZ = settings(max_examples=200, deadline=None)


def descriptor(q, padic):
    return Qp(q) if padic else laurent_field(q)


def lift(c: FieldElement, prec: int) -> FieldElement:
    """c padded with zero digits up to precision prec >= c.abs_precision."""
    if c.is_zero_to_precision:
        return FieldElement.zero_to_precision(c.descriptor, prec)
    return FieldElement(c.descriptor, c.valuation, c.unit, prec)


@st.composite
def digits_element(draw, F, low, prec):
    """An element with digits at positions low .. prec - 1 (some zero)."""
    n = max(prec - low, 0)
    digits = draw(st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n))
    return FieldElement.from_digits(F, low, digits, prec)


@st.composite
def ball(draw, F, j, extra=0):
    """A ball of radius exponent j; with extra > 0 its center keeps that
    many digits beyond the radius."""
    low = draw(st.integers(min(j, 0) - 4, j + 1))
    center = draw(digits_element(F, low, j + extra))
    return BallSpec(center, j) if extra else BallSpec.make(center, j)


@st.composite
def family(draw, F, max_size=24, lowest=-3, highest=7):
    balls = []
    for _ in range(draw(st.integers(0, max_size))):
        how = draw(st.integers(0, 4)) if balls else 4
        if how == 0:                                   # a duplicate
            balls.append(draw(st.sampled_from(balls)))
        elif how == 1:                                 # one of an existing radius
            j = draw(st.sampled_from(balls)).radius_exponent
            balls.append(draw(ball(F, j)))
        elif how == 2:                                 # nested in an existing ball
            outer = draw(st.sampled_from(balls))
            r = outer.radius_exponent
            j = r + draw(st.integers(0, 4))
            center = lift(outer.center.truncate(r), j) + draw(digits_element(F, r, j))
            balls.append(BallSpec.make(center, j))
        else:                                          # fresh, maybe non-canonical
            j = draw(st.integers(lowest, highest))
            extra = draw(st.sampled_from((0, 0, 0, 2)))
            balls.append(draw(ball(F, j, extra)))
    return balls


@st.composite
def any_family(draw):
    return draw(family(descriptor(*draw(st.sampled_from(SMALL)))))


@FUZZ
@given(any_family())
def test_same_tuple_as_the_pairwise_scan(balls):
    got = maximal_disjointify(balls)
    assert got == model.maximal_disjointify(balls)
    assert maximal_disjointify(reversed(balls)) == got
    want = sum((b.measure() for b in model.maximal_disjointify(balls)), Fraction(0))
    assert haar_union_measure(balls) == want


@st.composite
def any_ball(draw):
    """A ball as `ball` draws it, or one with a zero center stored above
    its radius."""
    F = descriptor(*draw(st.sampled_from(SMALL)))
    j, extra = draw(st.integers(-3, 7)), draw(st.sampled_from((0, 2)))
    if draw(st.booleans()):
        return BallSpec(FieldElement.zero_to_precision(F, j + extra), j)
    return draw(ball(F, j, extra))


@FUZZ
@given(any_ball())
def test_sort_key_is_the_valuation_lower_bound_order(b):
    c = b.center
    key = (b.radius_exponent, c.valuation_lower_bound, c.unit, c.abs_precision)
    assert b.sort_key() == key


def test_sort_key_of_a_zero_center():
    b = BallSpec(FieldElement.zero_to_precision(Qp(5), 5), 3)
    assert b.sort_key() == (3, 5, 0, 5)


def large_family(F, n, seed):
    """About n balls in n // 25 anchors of radius exponent -1, seeded:
    digits from below the anchors' radius (negative valuations), radius
    exponents from -2 up, some centers with two digits beyond the radius,
    a few loose balls anywhere, and a zero center stored above its radius
    beside a nonzero center of valuation at least that radius: the same
    ball twice."""
    rng = random.Random(f"{F}:{seed}")
    q, count, ja = F.q, n // 25, -1
    low = ja - 1
    while q ** (ja - low) < 2 * count:
        low -= 1

    def spec(digits, j):
        extra = rng.choice((0, 0, 0, 2))
        digits = digits + [rng.randrange(q) for _ in range(j + extra - low - len(digits))]
        return BallSpec(FieldElement.from_digits(F, low, digits, j + extra), j)
    anchors = [[rng.randrange(q) for _ in range(ja - low)] for _ in range(count)]
    balls = [spec(a, ja) for a in anchors]
    balls += [spec([], rng.randint(ja - 1, ja + 3)) for _ in range(8)]
    while len(balls) < n:
        balls.append(spec(rng.choice(anchors), rng.randint(ja, ja + 4)))
    j = rng.randint(ja - 1, ja + 4)
    balls.append(BallSpec(FieldElement.zero_to_precision(F, j + 2), j))
    balls.append(BallSpec(FieldElement.from_digits(F, j, [1 + rng.randrange(q - 1), 1], j + 2), j))
    rng.shuffle(balls)
    return balls


@pytest.mark.parametrize("F", [Qp(2), Qp(7), laurent_field(3), laurent_field(7)],
                         ids=["Q_2", "Q_7", "F_3((T))", "F_7((T))"])
@pytest.mark.parametrize("seed", [1, 2])
def test_large_seeded_families_match_the_model(F, seed):
    balls = large_family(F, 1000, seed)
    want = model.maximal_disjointify(balls)
    assert maximal_disjointify(balls) == want
    assert haar_union_measure(balls) == sum((b.measure() for b in want), Fraction(0))
    assert any(b.radius_exponent < 0 for b in want)
    assert any(b.center.valuation_lower_bound < 0 for b in want)
    assert len(want) >= 1000 // 25 // 2


@pytest.mark.parametrize("F", [Qp(3), laurent_field(3)])
def test_a_zero_center_above_its_radius_is_a_ball_around_zero(F):
    zero = BallSpec(FieldElement.zero_to_precision(F, 4), 2)
    near = BallSpec(FieldElement.from_digits(F, 2, [1, 2], 4), 2)
    far = BallSpec(FieldElement.from_digits(F, 1, [1, 2, 1], 4), 2)
    for fam in ([zero, near], [near, zero], [far, zero, near]):
        assert maximal_disjointify(fam) == model.maximal_disjointify(fam)
    assert maximal_disjointify([zero, near]) == (near,)
    assert haar_union_measure([far, zero, near]) == Fraction(2, 9)


def test_the_empty_family():
    assert maximal_disjointify([]) == () == model.maximal_disjointify([])
    assert haar_union_measure([]) == Fraction(0)
    assert type(haar_union_measure([])) is Fraction


@st.composite
def image_case(draw):
    """A unit-ball subfamily for the identity map over Q_p, with a ball
    B(c0, p^-j0) that some members leave."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    F = Qp(p)
    j0 = draw(st.integers(0, 2))
    outer = BallSpec.make(draw(digits_element(F, 0, j0)), j0)
    members = draw(family(F, max_size=12, lowest=0, highest=5))
    # members moved inside: their digits below j0 replaced by the center's
    movable = [b for b in members if b.radius_exponent >= j0]
    for b in draw(st.lists(st.sampled_from(movable), max_size=4)) if movable else ():
        r = b.radius_exponent
        c = b.center.truncate(r)
        members.append(BallSpec.make(
            lift(outer.center, r) + c - lift(c.truncate(j0), r), r))
    return F, outer, members


@FUZZ
@given(image_case())
def test_image_containment_matches_the_model(case):
    F, outer, members = case
    f = polynomial(F, [0, 1], 12)
    if all(model.contained_in(b, outer) for b in members):
        assert image_measure(f, outer, members) == haar_union_measure(members)
    else:
        with pytest.raises(DomainError, match="not contained"):
            image_measure(f, outer, members)


def test_mixed_descriptors_are_refused():
    a = BallSpec.make(FieldElement.from_rational(Qp(5), 1, 1, 3), 1)
    for other in (Qp(7), laurent_field(5)):
        b = BallSpec.make(FieldElement.from_rational(other, 1, 1, 3), 2)
        with pytest.raises(ValueError, match="mismatched"):
            maximal_disjointify([a, b])
        with pytest.raises(ValueError, match="mismatched"):
            image_measure(polynomial(Qp(5), [0, 1], 12), a, [b])


def test_center_below_its_radius_is_refused():
    Q5 = Qp(5)
    short = BallSpec(FieldElement.zero_to_precision(Q5, 2), 3)
    far = BallSpec.make(FieldElement.from_rational(Q5, 1, 1, 5), 1)
    zero = BallSpec.make(FieldElement.zero_to_precision(Q5, 5), 5)
    # refused whatever else the family holds: the pairwise scan refused
    # only the last family, whose comparison needed the missing digit
    for fam in ([short], [far, short], [short, zero]):
        with pytest.raises(InsufficientPrecision, match="below radius"):
            maximal_disjointify(fam)
    with pytest.raises(InsufficientPrecision):
        image_measure(polynomial(Q5, [0, 1], 12), far, [short])
