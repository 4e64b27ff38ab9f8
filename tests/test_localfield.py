import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvfield.errors import (DivisionByIndistinguishableZero, DomainError,
                            PrecisionExhausted)
from dvfield.localfield import (FieldElement, Qp, invert_one_minus,
                                laurent_field, laurent_invert)

Q5 = Qp(5)
Q7 = Qp(7)
L5 = laurent_field(5)


def el(desc, num, den=1, prec=8):
    return FieldElement.from_rational(desc, num, den, prec)


class TestFromRational:
    def test_half_in_z5(self):
        x = el(Q5, 1, 2, 3)
        assert x.valuation == 0 and x.digits == (3, 2, 2)

    def test_third_in_z5(self):
        assert el(Q5, 1, 3, 4).digits == (2, 3, 1, 3)

    def test_minus_sixth_in_z7(self):
        # -1/6 = 1/(1-7) = 1 + 7 + 7^2 + ...
        assert el(Q7, -1, 6, 3).digits == (1, 1, 1)

    def test_negative_valuation(self):
        x = el(Q5, 2, 25, 4)
        assert x.valuation == -2 and x.abs_precision == 4
        assert x.digits == (2, 0, 0, 0, 0, 0)

    def test_zero(self):
        x = el(Q5, 0, 1, 6)
        assert x.is_zero_to_precision and x.abs_precision == 6

    def test_laurent_constants(self):
        x = el(L5, 7, 3, 4)          # 7/3 = 2 * 3^-1 = 2*2 = 4 in F_5
        assert x.valuation == 0 and x.digits[0] == 4
        assert all(d == 0 for d in x.digits[1:])

    def test_laurent_constant_without_precision_is_zero(self):
        for prec in (0, -2):
            x = el(L5, 3, 1, prec)
            assert x == FieldElement.zero_to_precision(L5, prec)

    def test_laurent_rejects_residue_zero_denominator(self):
        with pytest.raises(DivisionByIndistinguishableZero):
            el(L5, 1, 5, 4)


class TestArithmetic:
    def test_add_precision_is_min(self):
        x = el(Q5, 3, 1, 4)
        y = el(Q5, 4, 1, 7)
        assert (x + y).abs_precision == 4
        assert (x + y).reduce_mod(4) == 7

    def test_cancellation_gives_zero_to_precision(self):
        x = el(Q5, 3, 1, 4)
        assert (x - x).is_zero_to_precision
        assert (x - x).abs_precision == 4

    @pytest.mark.parametrize("F", (Q5, L5))
    def test_zero_summand_at_the_other_valuation(self, F):
        """x of valuation 3 plus a zero known to 3 digits is zero to 3
        digits: the sum keeps no digit of x, not a unit 0 at valuation 3."""
        x = FieldElement.from_digits(F, 3, (1, 2), 5)
        for s in (x + FieldElement.zero_to_precision(F, 3),
                  FieldElement.zero_to_precision(F, 3) + x):
            assert s == FieldElement.zero_to_precision(F, 3)

    def test_mul_matches_rationals(self):
        x = el(Q5, 7, 2, 8)
        y = el(Q5, -3, 4, 8)
        assert (x * y).agrees_with(el(Q5, -21, 8, 8), 7)

    def test_mul_relative_precision(self):
        x = el(Q5, 5, 1, 4)          # v=1, 3 relative digits
        y = el(Q5, 25, 1, 8)         # v=2, 6 relative digits
        assert (x * y).valuation == 3
        assert (x * y).abs_precision == 6

    def test_div(self):
        x = el(Q7, 2, 1, 8)
        assert (x / x).agrees_with(el(Q7, 1, 1, 8), 8)
        assert (el(Q7, 14, 1, 8) / el(Q7, 7, 1, 8)).agrees_with(
            el(Q7, 2, 1, 6), 6)

    def test_div_by_indistinguishable_zero(self):
        z = FieldElement.zero_to_precision(Q5, 4)
        with pytest.raises(DivisionByIndistinguishableZero):
            el(Q5, 1, 1, 8) / z
        with pytest.raises(DivisionByIndistinguishableZero):
            z.inverse()

    def test_mul_integer_and_shift(self):
        x = el(Q5, 3, 1, 6)
        assert x.mul_integer(10).agrees_with(el(Q5, 30, 1, 6), 6)
        assert x.shift(2).valuation == 2
        assert x.shift(2).agrees_with(el(Q5, 75, 1, 8), 8)

    def test_descriptor_mismatch(self):
        with pytest.raises(ValueError):
            el(Q5, 1) + el(Q7, 1)


class TestPrecision:
    def test_truncate(self):
        x = el(Q5, 1, 3, 8)
        assert x.truncate(3).digits == (2, 3, 1)
        assert x.truncate(0).is_zero_to_precision
        with pytest.raises(PrecisionExhausted):
            x.truncate(9)

    def test_agrees_with(self):
        x = el(Q5, 1, 3, 8)
        y = x + el(Q5, 5**6, 1, 8)
        assert x.agrees_with(y, 6)
        assert not x.agrees_with(y, 7)
        with pytest.raises(PrecisionExhausted):
            x.agrees_with(x, 9)

    def test_residue_and_reduce_mod(self):
        x = el(Q5, 1, 2, 4)          # 63 mod 125 at depth 3
        assert x.reduce_mod(1) == 3
        assert x.reduce_mod(3) == 63
        with pytest.raises(DomainError):
            el(Q5, 1, 5, 4).reduce_mod(1)


class TestLaurent:
    def test_inversion_oracle(self):
        f = el(L5, 2, 1, 3) + el(L5, 1, 1, 3).shift(1)    # 2 + T
        inv = laurent_invert(f, 3)
        assert inv.digits == (3, 1, 2)
        assert (f * inv).agrees_with(el(L5, 1, 1, 3), 3)

    def test_inversion_with_valuation(self):
        f = (el(L5, 3, 1, 5) + el(L5, 4, 1, 5).shift(2)).shift(-1)
        inv = laurent_invert(f, 4)
        assert (f * inv).agrees_with(el(L5, 1, 1, 4), 4)

    def test_no_carries(self):
        x = el(L5, 4, 1, 4)
        assert (x + x).digits[0] == 3        # 4 + 4 = 3 in F_5
        assert (x + el(L5, 1, 1, 4)).is_zero_to_precision


class TestGeometricInverse:
    def test_invert_one_minus_matches_rational(self):
        x = el(Q7, 7 * 3, 1, 10)
        got = invert_one_minus(x, 8)
        assert got.agrees_with(el(Q7, 1, 1 - 21, 8), 8)

    def test_invert_one_minus_to_no_digits_is_zero_to_that_precision(self):
        # modulo 7^0 or coarser nothing is known, so there is nothing to invert
        for prec in (0, -2):
            got = invert_one_minus(el(Q7, 7, 1, 8), prec)
            assert got.is_zero_to_precision and got.abs_precision == prec

    def test_invert_one_minus_domain(self):
        with pytest.raises(DomainError):
            invert_one_minus(el(Q7, 3, 1, 8), 8)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6))
def test_valuation_laws_match_rational_arithmetic(a, b):
    x = el(Q5, a, 1, 14)
    y = el(Q5, b, 1, 14)
    s = x + y
    if a + b != 0:
        expected = el(Q5, a + b, 1, 14)
        assert s.agrees_with(expected, 14)
    if a != 0 and b != 0:
        p = x * y
        assert p.valuation == x.valuation + y.valuation
        vx, vy = x.valuation, y.valuation
        if vx != vy and not s.is_zero_to_precision:
            assert s.valuation == min(vx, vy)
