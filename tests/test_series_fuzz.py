"""Fuzzing of evaluation, the shifted sums and the series products.

Three kinds of check:

- Against the reference model (`series_model.py`, the element loops):
  `eval`, `recenter`, `deflate` and `cauchy_product` must return the same
  value or coefficients as (valuation, unit, abs_precision) tuples, the
  same tail, or the same error class and message.  Fields: Q_p and
  F_q((T)) for q in {2, 3, 5, 7}; polynomials, empty series, linear tail
  profiles with a coefficient factory, and over Q_p the exponential and
  its derivative; zero-to-precision coefficients and arguments, partial
  sums that cancel, negative valuations, mixed coefficient precisions;
  points known to less precision than the coefficients; radius
  exponents -2..2.
- Tail minorants: every coefficient at or past a tail's start, stored,
  built by the factory or recomputed from a longer input, has valuation
  at least ceil(slope*j + intercept).
- Against exact rationals over Q_p: every coefficient of `recenter`,
  `deflate` and `derivative`, and every `eval`, reduced modulo the
  precision it claims, equals the exact sum.  No result may claim more
  than it has proven.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_model as model
from dvfield.localfield import FieldElement, Qp, laurent_field
from dvfield.series import TailProfile, TruncatedSeries, polynomial
from dvfield.special import e_min, exp_eval, exp_series

SMALL = [(q, padic) for q in (2, 3, 5, 7) for padic in (True, False)]
FUZZ = settings(max_examples=150, deadline=None)


def descriptor(q, padic):
    return Qp(q) if padic else laurent_field(q)


# -- strategies -----------------------------------------------------------

@st.composite
def element(draw, F, low=-4, high=12):
    """An element with absolute precision in low..high, a nonzero one
    carrying 1 to 8 digits, sometimes zero to its precision."""
    prec = draw(st.integers(low, high))
    if draw(st.integers(0, 6)) == 0:
        return FieldElement.zero_to_precision(F, prec)
    k = draw(st.integers(1, 8))
    digits = [draw(st.integers(1, F.q - 1))]
    digits += draw(st.lists(st.integers(0, F.q - 1), min_size=k - 1, max_size=k - 1))
    return FieldElement.from_digits(F, prec - k, digits, prec)


def linear_factory(F, slope, intercept, k):
    """Coefficients of valuation ceil(slope*j + intercept) + j % 2 with k
    digits each, a fixed function of j."""
    def factory(j):
        v = math.ceil(slope * j + intercept) + j % 2
        digits = [1 + j % (F.q - 1)] + [(j * i) % F.q for i in range(1, k)]
        return FieldElement.from_digits(F, v, digits, v + k)
    return factory


@st.composite
def series(draw, F, kinds=("polynomial", "tail", "exp")):
    coeffs = tuple(draw(st.lists(element(F), max_size=6)))
    how = draw(st.sampled_from([k for k in kinds if F.kind.value == "padic" or k != "exp"]))
    if how == "polynomial":
        return TruncatedSeries(F, coeffs)
    if how == "exp":
        E = exp_series(F, draw(st.integers(1, 8)))
        if not coeffs:
            return E
        # a stored prefix replaced, as `parse_series` does for `... + tail:exp`
        stored = coeffs + E.coeffs[len(coeffs):]
        return TruncatedSeries(F, stored, TailProfile(len(stored), E.tail.slope,
                                                      E.tail.intercept), E.coeff_factory)
    slope = Fraction(draw(st.integers(-3, 4)), draw(st.integers(1, 3)))
    intercept = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    factory = linear_factory(F, slope, intercept, draw(st.integers(1, 6)))
    start = draw(st.integers(0, len(coeffs)))
    return TruncatedSeries(F, coeffs, TailProfile(start, slope, intercept), factory)


@st.composite
def shift_case(draw, kinds=("polynomial", "tail", "exp")):
    F = descriptor(*draw(st.sampled_from(SMALL)))
    f = draw(series(F, kinds))
    m = draw(st.integers(-2, 2))
    if f.tail is not None and 0 < f.tail.slope + m < Fraction(1, 2):
        m += 1            # keeps the materialized length small
    # mostly inside the ball; sometimes one valuation outside
    v = draw(st.integers(m - 1, m + 3))
    if draw(st.integers(0, 7)) == 0:
        return f, FieldElement.zero_to_precision(F, v), m
    k = draw(st.integers(1, 6))
    digits = [draw(st.integers(1, F.q - 1))]
    digits += draw(st.lists(st.integers(0, F.q - 1), min_size=k - 1, max_size=k - 1))
    return f, FieldElement.from_digits(F, v, digits, v + k), m


def outcome(call):
    """What a call returned, comparably: coefficient triples and tail, or
    the error class and message."""
    try:
        s = call()
    except Exception as exc:             # compared, not swallowed
        return ("error", type(exc).__name__, str(exc))
    return ("ok", tuple((c.valuation, c.unit, c.abs_precision) for c in s.coeffs),
            s.tail, s.descriptor)


def value_outcome(call):
    """An element as its triple, or the error class and message."""
    try:
        y = call()
    except Exception as exc:             # compared, not swallowed
        return ("error", type(exc).__name__, str(exc))
    return ("ok", y.valuation, y.unit, y.abs_precision, y.descriptor)


# -- the reference model --------------------------------------------------

@st.composite
def eval_case(draw):
    """A series, its derivative or a series whose partial sums cancel at
    the point, a point mostly inside its domain, and a target."""
    F = descriptor(*draw(st.sampled_from(SMALL)))
    f = draw(series(F))
    how = draw(st.sampled_from(("series", "derivative", "cancel")))
    if how == "derivative":
        f = f.derivative()
    # the least v(x) that makes the term valuations tend to infinity
    low = -2 if f.tail is None else math.floor(-f.tail.slope) + 1
    v = draw(st.integers(low - 1, low + 3))
    if draw(st.integers(0, 7)) == 0:
        x = FieldElement.zero_to_precision(F, v + draw(st.integers(0, 4)))
    else:
        k = draw(st.integers(1, 10))
        digits = [draw(st.integers(1, F.q - 1))]
        digits += draw(st.lists(st.integers(0, F.q - 1), min_size=k - 1, max_size=k - 1))
        x = FieldElement.from_digits(F, v, digits, v + k)
    if how == "cancel":
        # a_0 = -(a_1 x) + r with r small: the top digits of a_1 x + a_0 cancel
        c = draw(element(F))
        r = draw(element(F, high=16))
        f = TruncatedSeries(F, (r - c * x, c) + f.coeffs[2:], f.tail, f.coeff_factory)
    return f, x, draw(st.integers(-4, 16))


@FUZZ
@given(eval_case())
def test_eval_matches_the_model(case):
    f, x, target = case
    assert value_outcome(lambda: f.eval(x, target)) == value_outcome(
        lambda: model.eval(f, x, target))


@st.composite
def narrow_eval_case(draw):
    """Short series and points whose valuations and precisions all lie in
    a few units, so that a product lands exactly on a summand's precision,
    sums cancel to zero and zero-to-precision terms meet often."""
    F = descriptor(*draw(st.sampled_from(SMALL)))
    coeffs = tuple(draw(st.lists(element(F, low=0, high=5), min_size=1, max_size=5)))
    zero = FieldElement.zero_to_precision(F, draw(st.integers(0, 4)))
    x = draw(st.one_of(st.just(zero), element(F, low=0, high=6)))
    return TruncatedSeries(F, coeffs), x, draw(st.integers(-1, 6))


@settings(max_examples=400, deadline=None)
@given(narrow_eval_case())
def test_eval_on_near_precisions_matches_the_model(case):
    f, x, target = case
    assert value_outcome(lambda: f.eval(x, target)) == value_outcome(
        lambda: model.eval(f, x, target))


@pytest.mark.parametrize("q", (2, 3, 5, 7))
@pytest.mark.parametrize("padic", (True, False))
def test_eval_with_zero_coefficients_matches_the_model(q, padic):
    """X^2 - 2 stores a zero-to-precision X coefficient, and O(q^a) + X a
    zero constant that cuts the sum to a digits; at points of every
    valuation and precision near the coefficients' the value cancels to
    few digits or to zero."""
    F = descriptor(q, padic)
    one = FieldElement.one(F, 10)
    series = [polynomial(F, [-2, 0, 1], 8)] + [
        TruncatedSeries(F, (FieldElement.zero_to_precision(F, a), one)) for a in range(6)]
    for f in series:
        for v in range(-2, 4):
            for prec in range(v + 1, v + 12):
                k = prec - v
                for digits in ([1] + [0] * (k - 1), [q - 1] * k, [1, q - 1] * k):
                    x = FieldElement.from_digits(F, v, digits[:k], prec)
                    for target in (0, 4, 8, 12):
                        assert value_outcome(lambda: f.eval(x, target)) == value_outcome(
                            lambda: model.eval(f, x, target))
            x = FieldElement.zero_to_precision(F, v)
            assert value_outcome(lambda: f.eval(x, 8)) == value_outcome(
                lambda: model.eval(f, x, 8))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 60), st.integers(0, 3),
       st.integers(1, 400), st.booleans(), st.data())
def test_exponential_eval_matches_the_model(p, N, dv, num, derivative, data):
    """E and E' at points of the domain known to less, as much or more
    precision than the coefficients support."""
    F = Qp(p)
    E = exp_series(F, N)
    f = E.derivative() if derivative else E
    v = e_min(p) + dv
    x = FieldElement.from_rational(F, num * p ** v, 1 + p * data.draw(st.integers(0, 30)),
                                   data.draw(st.integers(v + 1, 2 * N + 4)))
    target = data.draw(st.integers(N - 3, N + 3))
    assert value_outcome(lambda: f.eval(x, target)) == value_outcome(
        lambda: model.eval(f, x, target))
    if target >= 1:
        assert value_outcome(lambda: exp_eval(x, target)) == value_outcome(
            lambda: model.exp_eval(x, target))


def test_eval_builds_no_element_per_term(monkeypatch):
    """A 200-term evaluation of E, through eval and through exp_eval,
    runs no element product or sum."""
    F = Qp(3)
    E = exp_series(F, 101)
    x = FieldElement.from_rational(F, 3 * 5, 7, 101)
    assert E._cutoff(x.valuation, 101) >= 200
    expected = model.eval(E, x, 101)
    expected = (expected.valuation, expected.unit, expected.abs_precision)

    def forbidden(a, b):
        raise AssertionError("element arithmetic in eval")

    monkeypatch.setattr(FieldElement, "__mul__", forbidden)
    monkeypatch.setattr(FieldElement, "__add__", forbidden)
    for y in (E.eval(x, 101), exp_eval(x, 101)):
        assert (y.valuation, y.unit, y.abs_precision) == expected


@FUZZ
@given(shift_case())
def test_recenter_matches_the_model(case):
    f, x0, m = case
    assert outcome(lambda: f.recenter(x0, m)) == outcome(lambda: model.recenter(f, x0, m))


@FUZZ
@given(shift_case())
def test_deflate_matches_the_model(case):
    f, x0, m = case
    assert outcome(lambda: f.deflate(x0, m)) == outcome(lambda: model.deflate(f, x0, m))


@st.composite
def product_case(draw):
    F = descriptor(*draw(st.sampled_from(SMALL)))
    return draw(series(F)), draw(series(F))


@FUZZ
@given(product_case())
def test_cauchy_product_matches_the_model(case):
    f, g = case
    assert outcome(lambda: f.cauchy_product(g)) == outcome(lambda: model.cauchy_product(f, g))


def test_empty_factors():
    F = Qp(5)
    empty = TruncatedSeries(F, ())
    three = TruncatedSeries(F, tuple(FieldElement.from_rational(F, j + 1, 1, 6 + j)
                                     for j in range(3)))
    for f, g in ((empty, empty), (empty, three), (three, empty)):
        assert outcome(lambda: f.cauchy_product(g)) == outcome(
            lambda: model.cauchy_product(f, g))
    assert outcome(lambda: empty.cauchy_product(empty))[1] == "InsufficientPrecision"
    # an empty polynomial is zero: two zeros, to the other factor's precision
    assert [(c.valuation_lower_bound, c.abs_precision)
            for c in empty.cauchy_product(three).coeffs] == [(6, 6), (6, 6)]


# -- products counted -----------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_one_table_of_powers(monkeypatch, n):
    """n stored coefficients: n - first - 1 powers of x0, then one product
    per (output, source) pair."""
    F = Qp(3)
    f = TruncatedSeries(F, tuple(FieldElement.from_rational(F, j + 2, 1, 10)
                                 for j in range(n)))
    x0 = FieldElement.from_rational(F, 3, 1, 10)
    calls = []
    mul = FieldElement.__mul__
    monkeypatch.setattr(FieldElement, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    f.deflate(x0, 0)
    assert len(calls) <= n * (n - 1) // 2 + n - 2
    calls.clear()
    f.recenter(x0, 0)
    assert len(calls) <= n * (n + 1) // 2 + n - 1


# -- exact rationals ------------------------------------------------------

def vp(p, x: Fraction):
    if x == 0:
        return math.inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def value(c: FieldElement) -> Fraction:
    if c.is_zero_to_precision:
        return Fraction(0)
    return c.unit * Fraction(c.descriptor.q) ** c.valuation


def assert_proven(c: FieldElement, exact: Fraction):
    assert vp(c.descriptor.q, value(c) - exact) >= c.abs_precision, (c, exact)


@st.composite
def rational(draw):
    num = draw(st.integers(-60, 60))
    den = draw(st.integers(1, 40))
    return Fraction(num, den)


@st.composite
def rational_element(draw, F, low=-2, high=12):
    """An exact rational and its image at a drawn precision."""
    r = draw(rational())
    if r and draw(st.booleans()):
        r *= Fraction(F.q) ** draw(st.integers(-2, 2))
    x = FieldElement.from_rational(F, r.numerator, r.denominator,
                                   draw(st.integers(low, high)))
    return r, x


@st.composite
def rational_case(draw):
    F = Qp(draw(st.sampled_from((2, 3, 5, 7))))
    pairs = draw(st.lists(rational_element(F), min_size=1, max_size=7))
    exact = [r for r, _ in pairs]
    f = TruncatedSeries(F, tuple(x for _, x in pairs))
    r0, x0 = draw(rational_element(F, low=-2, high=10))
    m = min(x0.valuation_lower_bound, draw(st.integers(-3, 3)))
    return exact, f, r0, x0, m


@FUZZ
@given(rational_case())
def test_shifted_sums_claim_only_what_is_proven(case):
    a, f, r0, x0, m = case
    n = len(a)
    for j, c in enumerate(f.recenter(x0, m).coeffs):
        assert_proven(c, sum(math.comb(l, j) * a[l] * r0 ** (l - j) for l in range(j, n)))
    for j, c in enumerate(f.deflate(x0, m).coeffs, start=1):
        assert_proven(c, sum(a[l] * r0 ** (l - j) for l in range(j, n)))
    for j, c in enumerate(f.derivative().coeffs, start=1):
        assert_proven(c, j * a[j])


@FUZZ
@given(rational_case(), st.integers(-4, 14))
def test_eval_claims_only_what_is_proven(case, target):
    a, f, r0, x0, _ = case
    y = f.eval(x0, target)
    assert y.abs_precision <= target
    assert_proven(y, sum(c * r0 ** j for j, c in enumerate(a)))


def exp_terms_until(p, v, prec):
    """An index K with v(x^l / l!) >= prec for every l >= K when v(x) >= v:
    the bound l*v - (l - 1)/(p - 1) grows with l."""
    K = 1
    while K * v - Fraction(K - 1, p - 1) < prec:
        K += 1
    return K


@st.composite
def exp_case(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    F = Qp(p)
    E = exp_series(F, draw(st.integers(1, 8)))
    m = e_min(p) + draw(st.integers(0, 1))
    unit = Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    r0 = unit * Fraction(p) ** (m - vp(p, unit) + draw(st.integers(0, 2)))
    x0 = FieldElement.from_rational(F, r0.numerator, r0.denominator,
                                    draw(st.integers(m + 1, 12)))
    return p, E, r0, x0, m


@FUZZ
@given(exp_case(), st.integers(1, 10))
def test_exponential_claims_only_what_is_proven(case, target):
    """eval, recenter and deflate of exp against exact partial sums whose
    dropped terms all have valuation at least the claimed precision."""
    p, E, r0, x0, m = case
    v = vp(p, r0)

    def partial(j, c, weight):
        # a dropped term w * x0^(l-j) / l!, w an integer, has valuation at
        # least (l-j) v - (l-1)/(p-1), which is the claimed precision or
        # more once l - j >= K
        K = exp_terms_until(p, v, c.abs_precision + Fraction(j, p - 1))
        return sum(weight(l) * r0 ** (l - j) / math.factorial(l) for l in range(j, j + K))

    y = E.eval(x0, target)
    assert_proven(y, partial(0, y, lambda l: 1))
    for j, c in enumerate(E.recenter(x0, m).coeffs):
        assert_proven(c, partial(j, c, lambda l: math.comb(l, j)))
    for j, c in enumerate(E.deflate(x0, m).coeffs, start=1):
        assert_proven(c, partial(j, c, lambda l: 1))


# -- tail minorants -------------------------------------------------------

def assert_tail_holds(tail, coeffs, first):
    """coeffs[i] is coefficient first + i; those at or past tail.start
    must have valuation at least ceil(slope*j + intercept).  A coefficient
    zero to precision P only shows v >= P, which no bound contradicts."""
    for j, c in enumerate(coeffs, start=first):
        if j >= tail.start and not c.is_zero_to_precision:
            assert c.valuation >= math.ceil(tail.slope * j + tail.intercept), (j, c, tail)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 40), st.integers(1, 30))
def test_exponential_tails_hold(p, N, extra):
    """E and E' against their stored and factory-built coefficients."""
    E = exp_series(Qp(p), N)
    for f in (E, E.derivative()):
        longer = f.materialized(f.stored_len + extra)
        assert_tail_holds(f.tail, longer.coeffs, 0)


LONGER = 8


@FUZZ
@given(shift_case(kinds=("tail", "exp")))
def test_shifted_sum_tails_hold(case):
    """The tails of recenter and deflate against the coefficients the same
    shifted sum gives from LONGER more terms of the input, each certified
    to its own precision."""
    f, x0, m = case
    if (f.tail is None or not f.coeffs or not f.admits_radius(m)
            or x0.valuation_lower_bound < m):
        return
    shifted = (f.recenter(x0, m), f.deflate(x0, m))
    longer_f = f.materialized(max(g.stored_len for g in shifted) + 1 + LONGER)
    for g, longer in zip(shifted, (longer_f.recenter(x0, m), longer_f.deflate(x0, m))):
        assert len(longer.coeffs) > g.tail.start
        assert_tail_holds(g.tail, longer.coeffs, 0)


@FUZZ
@given(product_case())
def test_cauchy_product_tails_hold(case):
    """The product's tail against the product of LONGER more terms of each
    factor (a polynomial factor pads with zeros; an empty one is zero)."""
    f, g = case
    if not (f.coeffs and g.coeffs) or f.is_polynomial and g.is_polynomial:
        return
    h = f.cauchy_product(g)
    n = h.stored_len + LONGER
    longer = f.materialized(n).cauchy_product(g.materialized(n))
    assert len(longer.coeffs) >= n
    assert_tail_holds(h.tail, longer.coeffs, 0)
