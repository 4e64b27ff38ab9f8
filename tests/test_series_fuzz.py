"""Fuzzing of the shifted sums and the series products.

Two kinds of check:

- Against the reference model (`series_model.py`, the per-coefficient
  loops): `recenter`, `deflate` and `cauchy_product` must return the same
  coefficients as (valuation, unit, abs_precision) tuples, the same tail,
  or the same error class and message.  Fields: Q_p and F_q((T)) for q in
  {2, 3, 5, 7}; polynomials, empty series, linear tail profiles with a
  coefficient factory, and over Q_p the exponential's tail; centers known
  to less precision than the coefficients; radius exponents -2..2.
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
from dvfield.series import TailProfile, TruncatedSeries
from dvfield.special import e_min, exp_series

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
def series(draw, F):
    coeffs = tuple(draw(st.lists(element(F), max_size=6)))
    how = draw(st.sampled_from(("polynomial", "tail", "exp") if F.kind.value == "padic"
                               else ("polynomial", "tail")))
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
def shift_case(draw):
    F = descriptor(*draw(st.sampled_from(SMALL)))
    f = draw(series(F))
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


# -- the reference model --------------------------------------------------

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
