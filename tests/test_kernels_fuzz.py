"""Fuzzing of the element kernels against the digit-tuple reference model.

Fields: Q_p and F_q((T)) for q in {2, 3, 5, 7}, plus F_q((T)) for primes
whose coefficients need wider slots; elements with absolute precision up
to 64, negative valuations and zero-to-precision elements.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digit_model as ref
from dvfield.errors import (DivisionByIndistinguishableZero, DomainError,
                            PrecisionExhausted)
from dvfield.localfield import FieldElement, Qp, laurent_field
from dvfield.valuation import INFINITY

SMALL = [(q, padic) for q in (2, 3, 5, 7) for padic in (True, False)]
# slots of 2, 4 and 4 bytes; the last one's products need 9-byte slots
WIDE = [(131, False), (65537, False), (2**31 - 1, False)]
MAX_PREC = 64


def descriptor(q, padic):
    return Qp(q) if padic else laurent_field(q)


@st.composite
def element(draw, q, padic):
    if draw(st.integers(0, 7)) == 0:
        return ref.zero(q, padic, draw(st.integers(-8, MAX_PREC)))
    v = draw(st.integers(-8, 8))
    k = draw(st.integers(1, MAX_PREC - v))
    digits = [draw(st.integers(1, q - 1))]
    digits += draw(st.lists(st.integers(0, q - 1), min_size=k - 1, max_size=k - 1))
    return ref.Ref(q, padic, v, tuple(digits), v + k)


@st.composite
def field_and(draw, count, fields=SMALL):
    q, padic = draw(st.sampled_from(fields))
    return (q, padic) + tuple(draw(element(q, padic)) for _ in range(count))


def lib(r):
    return FieldElement.from_digits(descriptor(r.q, r.padic), r.valuation or 0,
                                    r.digits, r.abs_precision)


def same(x, r):
    v = None if x.valuation is INFINITY else x.valuation
    return (v, x.digits, x.abs_precision) == (r.valuation, r.digits, r.abs_precision)


FUZZ = settings(max_examples=150, deadline=None)


@FUZZ
@given(field_and(1, SMALL + WIDE))
def test_digits_round_trip(case):
    _, _, a = case
    x = lib(a)
    assert same(x, a)
    assert x.relative_precision == a.relative_precision


@FUZZ
@given(field_and(2, SMALL + WIDE))
def test_add_sub_mul(case):
    _, _, a, b = case
    x, y = lib(a), lib(b)
    assert same(x + y, ref.add(a, b))
    assert same(x - y, ref.sub(a, b))
    assert same(x * y, ref.mul(a, b))


@FUZZ
@given(field_and(1, SMALL + WIDE))
def test_neg_and_inverse(case):
    _, _, a = case
    x = lib(a)
    assert same(-x, ref.neg(a))
    if a.is_zero:
        with pytest.raises(DivisionByIndistinguishableZero):
            x.inverse()
    else:
        assert same(x.inverse(), ref.inverse(a))


@FUZZ
@given(st.sampled_from((2, 3, 5, 7, 101)), st.integers(1, 2100), st.data())
def test_padic_inverse_is_pow(p, k, data):
    """Newton iteration above the crossover and pow below it give the one
    inverse modulo p^k, also through quotient and for units given beyond
    k digits or negative."""
    K = Qp(p).arith
    m = p ** k
    u = data.draw(st.integers(-(m * p), m * p).filter(lambda n: n % p))
    a = data.draw(st.integers(-10 ** 6, 10 ** 6))
    assert K.inv(u, k) == pow(u, -1, m)
    assert K.quotient(a, u, k) == a * pow(u, -1, m) % m


@FUZZ
@given(field_and(1), st.data())
def test_truncate_and_shift(case, data):
    _, _, a = case
    x = lib(a)
    prec = data.draw(st.integers(a.abs_precision - 70, a.abs_precision))
    assert same(x.truncate(prec), ref.truncate(a, prec))
    with pytest.raises(PrecisionExhausted):
        x.truncate(a.abs_precision + 1)
    k = data.draw(st.integers(-10, 10))
    assert same(x.shift(k), ref.shift(a, k))


@FUZZ
@given(field_and(1), st.data())
def test_mul_integer(case, data):
    q, _, a = case
    n = data.draw(st.one_of(st.integers(-10**6, 10**6),
                            st.integers(-50, 50).map(lambda m: m * q ** 3)))
    assert same(lib(a).mul_integer(n), ref.mul_integer(a, n))


@FUZZ
@given(st.sampled_from(SMALL), st.data())
def test_from_rational(field, data):
    q, padic = field
    num = data.draw(st.one_of(st.integers(-10**9, 10**9),
                              st.integers(-99, 99).map(lambda m: m * q ** 4)))
    den = data.draw(st.one_of(st.integers(1, 10**9),
                              st.integers(1, 99).map(lambda m: m * q ** 3)))
    den *= data.draw(st.sampled_from((1, -1)))
    prec = data.draw(st.integers(-5, MAX_PREC))
    F = descriptor(q, padic)
    try:
        want = ref.from_rational(q, padic, num, den, prec)
    except ValueError:
        with pytest.raises(DivisionByIndistinguishableZero):
            FieldElement.from_rational(F, num, den, prec)
        return
    assert same(FieldElement.from_rational(F, num, den, prec), want)


@FUZZ
@given(field_and(1), st.data())
def test_reduce_mod_and_residue(case, data):
    _, _, a = case
    x = lib(a)
    j = data.draw(st.integers(0, max(a.abs_precision, 0)))
    if j > a.abs_precision:
        with pytest.raises(PrecisionExhausted):
            x.reduce_mod(j)
        return
    if a.lower_bound < 0:
        with pytest.raises(DomainError):
            x.reduce_mod(j)
        return
    assert x.reduce_mod(j) == ref.reduce_mod(a, j)


class TestConstructionInvariants:
    @pytest.mark.parametrize("F", [Qp(5), laurent_field(5)])
    def test_bad_elements_are_refused(self, F):
        good = FieldElement.from_rational(F, 3, 1, 4)
        assert FieldElement(F, good.valuation, good.unit, good.abs_precision) == good
        for v, unit, prec in [(4, good.unit, 4),        # valuation not below precision
                              (5, good.unit, 4),
                              (INFINITY, 1, 4),         # zero with a nonzero unit
                              (0, 0, 4),                # finite valuation, unit 0
                              (0, -3, 4)]:              # negative unit
            with pytest.raises(ValueError):
                FieldElement(F, v, unit, prec)
        # digits (0, 2): the unit of 3 + 2*q less the unit of 3, in either layout
        low_zero = (FieldElement.from_digits(F, 0, [3, 2], 4).unit
                    - FieldElement.from_digits(F, 0, [3], 4).unit)
        with pytest.raises(ValueError):
            FieldElement(F, 0, low_zero, 4)


def naive_strip(p, u):
    t = 0
    while u % p == 0:
        u //= p
        t += 1
    return t, u


@FUZZ
@given(st.sampled_from((2, 3, 5, 7)), st.integers(0, 300), st.integers(1, 7 ** 40),
       st.booleans())
def test_padic_strip_matches_the_digit_loop(p, t, w, negative):
    """strip finds t by dividing by p^(2^j), not once per digit; the unit
    part w may itself be divisible by p, and then t grows by its share."""
    u = (-1 if negative else 1) * p ** t * w
    assert Qp(p).arith.strip(u) == naive_strip(p, u)
