"""Fuzzing of the prefix-hash maximal-ball scan against the pairwise model.

Fields: Q_p and F_q((T)) for q in {2, 3, 5, 7}.  Families mix fresh
balls, duplicates, balls of an existing ball's radius and chains of
nested balls; centers may have negative valuation, radius exponents may
be negative, and some centers carry digits beyond the radius (balls built
directly, not through `BallSpec.make`).
"""

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
    assert haar_union_measure(balls) == sum((b.measure() for b in got), Fraction(0))


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
