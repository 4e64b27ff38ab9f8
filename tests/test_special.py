import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exp_model
import log_model
import series_model as model
from dvfield import special
from dvfield.errors import DomainError, PrecisionExhausted
from dvfield.localfield import FieldElement, Qp, laurent_field
from dvfield.rootfind import strassmann_bound
from dvfield.series import TruncatedSeries
from dvfield.special import e_min, exp_eval, exp_series, log_solve
from dvfield.valuation import factorial_valuation, vp

Q2 = Qp(2)
Q3 = Qp(3)
Q5 = Qp(5)
Q7 = Qp(7)


def el(desc, num, den=1, prec=12):
    return FieldElement.from_rational(desc, num, den, prec)


def test_domain_edge():
    assert e_min(2) == 2
    for p in (3, 5, 7, 11):
        assert e_min(p) == 1


def test_needs_characteristic_zero():
    with pytest.raises(DomainError):
        exp_series(laurent_field(5), 8)
    with pytest.raises(DomainError, match="needs characteristic zero"):
        exp_eval(FieldElement.one(laurent_field(5), 4), 4)


class TestCoefficients:
    def test_stored_coefficients_are_inverse_factorials(self):
        E = exp_series(Q5, 8).materialized(8)
        for j in range(8):
            expected = FieldElement.from_rational(
                Q5, 1, math.factorial(j), E.coeffs[j].abs_precision)
            assert E.coeffs[j].agrees_with(expected,
                                           min(6, E.coeffs[j].abs_precision))

    def test_stored_coefficients_equal_from_rational(self):
        for p in (2, 3, 5, 7):
            E = exp_series(Qp(p), 30)
            prec = E.working_precision
            for j, c in enumerate(E.coeffs):
                assert c == FieldElement.from_rational(Qp(p), 1, math.factorial(j), prec)

    def test_evaluations_to_the_target_build_no_coefficients(self, monkeypatch):
        for p in (2, 3, 5, 7):
            for N in (8, 30, 75):
                E = exp_series(Qp(p), N)
                x = el(Qp(p), p ** e_min(p) * (1 + p), 1, N)    # the domain edge
                D = E.derivative()
                monkeypatch.setattr(FieldElement, "from_rational", None)
                E.eval(x, N)
                D.eval(x, N)
                monkeypatch.undo()

    def test_tail_minorant_certified_far_out(self):
        for p in (2, 3, 5, 7):
            E = exp_series(Qp(p), 8)
            s, i = E.tail.slope, E.tail.intercept
            for j in range(1, 501):
                v = -factorial_valuation(p, j)
                if j < 30:
                    assert v == vp(p, Fraction(1, math.factorial(j)))
                assert Fraction(v) >= s * j + i


class TestShortTable:
    """exp_series stores at most five 1/j!; every bound read from the
    table matches the full table of the Horner evaluator
    (`series_model.exp_series`)."""

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_bounds_match_the_full_table(self, p):
        F = Qp(p)
        for N in (1, 2, 3, 4, 5, 8, 17, 40, 100, 300):
            E, full = exp_series(F, N), model.exp_series(F, N)
            assert E.stored_len == min(5, full.stored_len)
            assert E.working_precision == full.working_precision
            assert E.global_minorant() == full.global_minorant()
            for m in range(e_min(p), e_min(p) + 4):
                for k in range(4):
                    assert E.sup_exponent(m, k) == full.sup_exponent(m, k), (N, m, k)
                for first in (0, 1):
                    assert strassmann_bound(E, m, first) == strassmann_bound(full, m, first)

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_shifted_sums_are_the_full_tables_cut_short(self, p):
        """recenter and deflate materialize a number of terms that grows
        with the stored count, so from the short table they return fewer
        coefficients: the full table's first ones, each the same value to
        at most the same precision, under the same tail line."""
        F = Qp(p)
        rng = random.Random(p)
        for N in (1, 3, 5, 12, 20):
            E, full = exp_series(F, N), model.exp_series(F, N)
            for m in range(e_min(p), e_min(p) + 3):
                for _ in range(2):
                    v = m + rng.randrange(3)
                    x0 = el(F, p ** v * rng.randrange(1, 50), 1 + p * rng.randrange(9),
                            v + rng.randrange(1, 12))
                    for op in ("recenter", "deflate"):
                        short, long = getattr(E, op)(x0, m), getattr(full, op)(x0, m)
                        assert short.stored_len <= long.stored_len
                        assert short.tail.start == short.stored_len
                        assert (short.tail.slope, short.tail.intercept) == (
                            long.tail.slope, long.tail.intercept)
                        for c, d in zip(short.coeffs, long.coeffs):
                            assert c == d.truncate(c.abs_precision)


def exact_exp_mod(p, x, k):
    """E(x) modulo p^k for an integer x with v(x) >= e_min(p), from the
    exact partial sum over j < J, J the first index with j v(x) - (j -
    1)/(p - 1) >= k: Horner's rule on sum x^j (J-1)!/j!, then division
    by (J-1)! = p^t Q'.  Both run modulo p^(k+t), which keeps every
    digit the division reads; the sum itself has about J k digits."""
    v = 0
    while x % p ** (v + 1) == 0:
        v += 1
    J = 1
    while J * v * (p - 1) - (J - 1) < k * (p - 1):
        J += 1
    t, power = 0, p
    while power < J:
        t += (J - 1) // power
        power *= p
    M = p ** (k + t)
    acc = c = 1
    for j in range(J - 2, -1, -1):
        c = c * (j + 1) % M
        acc = (acc * x + c) % M
    return acc // p ** t * pow(c // p ** t, -1, p ** k) % p ** k


class TestClosedForm:
    """E in closed form (bit-burst binary splitting) against exact sums
    and against Horner's rule over the stored 1/j! (`series_model`)."""

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    @pytest.mark.parametrize("N", (1000, 3000))
    def test_matches_exact_partial_sums(self, p, N):
        rng = random.Random(N + p)
        s = e_min(p)
        x = p ** s * rng.randrange(1, p ** (N - s))
        if x % p ** (s + 1) == 0:
            x += p ** s
        want = exact_exp_mod(p, x, N)
        xe = el(Qp(p), x, 1, N)
        assert exp_eval(xe, N) == FieldElement(Qp(p), 0, want, N)
        assert exp_series(Qp(p), N).eval(xe, N) == FieldElement(Qp(p), 0, want, N)

    def test_edge_cases_match_the_model(self):
        def outcome(call):
            try:
                y = call()
            except Exception as exc:         # compared, not swallowed
                return ("error", type(exc).__name__, str(exc))
            return ("ok", y.valuation, y.unit, y.abs_precision)

        cases = []
        for p in (2, 3, 5, 7):
            F, s = Qp(p), e_min(p)
            for N in (1, 2, 5, 12):
                cases += [
                    (F, N, FieldElement.zero_to_precision(F, s), N),          # zero, short
                    (F, N, FieldElement.zero_to_precision(F, N + 4), N),
                    (F, N, el(F, p ** s * (p + 1), 1, N + 2), N),             # v(x) = e_min
                    (F, N, el(F, p ** s * 2 if p > 2 else 12, 11, N), N),
                    (F, N, el(F, p ** s, 1, 2 * s), 2 * s),                   # one chunk
                    (F, N, el(F, p ** (s + 1) * (p + 1), 1, s + 2), N + 1),   # x short
                    (F, N, el(F, p ** s * 5, 3 if p != 3 else 2, 9), 0),      # target <= 0
                    (F, N, el(F, p ** s * 5, 3 if p != 3 else 2, 9), -2),
                    (F, N, el(F, p ** (s - 1) * (p + 1), 1, 9), N),           # outside
                    (F, N, el(Q5 if p != 5 else Q3, 25, 1, 9), N),            # other field
                ]
        for F, N, x, target in cases:
            E = exp_series(F, N)
            got = outcome(lambda: E.eval(x, target))
            assert got == outcome(lambda: model.eval(E, x, target)), (F.q, N, x, target)
            assert outcome(lambda: E.derivative().eval(x, target)) == got
            if target >= 1 and x.descriptor == F and x.valuation_lower_bound >= e_min(F.q):
                assert outcome(lambda: exp_eval(x, target)) == outcome(
                    lambda: model.exp_eval(x, target)), (F.q, N, x, target)

    def test_exp_eval_to_a_nonpositive_target(self):
        """Known to no digit: zero to that precision, what E.eval returns
        (the table of the Horner path could not be built there)."""
        x = el(Q3, 3, 1, 10)
        for target in (0, -3):
            assert exp_eval(x, target) == FieldElement.zero_to_precision(Q3, target)

    def test_derivative_is_the_series(self):
        for p in (2, 3, 5, 7):
            E = exp_series(Qp(p), 20)
            assert E.derivative() is E

    def test_exp_eval_builds_no_series(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("exp_eval went through a series")

        x = el(Q3, 3 * 5, 7, 200)
        want = exp_eval(x, 200)
        monkeypatch.setattr(special, "exp_series", forbidden)
        monkeypatch.setattr(TruncatedSeries, "eval", forbidden)
        monkeypatch.setattr(type(exp_series(Q3, 1)), "eval", forbidden)
        assert exp_eval(x, 200) == want


class TestExpEval:
    def test_oracle_q5(self):
        got = exp_eval(el(Q5, 5, 1, 14), 3)
        assert got.reduce_mod(3) == 81       # 1 + 5 + 25/2 mod 125

    def test_oracle_q2(self):
        got = exp_eval(el(Q2, 4, 1, 14), 6)
        assert got.reduce_mod(6) == 13       # 1 + 4 + 8 mod 64

    def test_partial_sum_oracle_random(self):
        rng = random.Random(13)
        for p in (3, 5, 7):
            desc = Qp(p)
            for _ in range(10):
                a = p * rng.randrange(1, p**3)
                got = exp_eval(el(desc, a, 1, 16), 8)
                acc = Fraction(0)
                for j in range(0, 64):
                    term = Fraction(a) ** j / math.factorial(j)
                    if j > 0 and vp(p, term) >= 8:
                        break
                    acc += term
                want = FieldElement.from_rational(
                    desc, acc.numerator, acc.denominator, 8)
                assert got.agrees_with(want, 8)

    def test_unit_magnitude_and_isometry(self):
        rng = random.Random(31)
        for p in (2, 3, 5):
            desc = Qp(p)
            for _ in range(20):
                v = rng.randrange(e_min(p), 5)
                a = p**v * rng.randrange(1, p**3)
                if a % p**(v + 1) == 0:
                    continue
                x = el(desc, a, 1, 16)
                y = exp_eval(x, 10)
                assert y.valuation == 0
                assert (y - FieldElement.one(desc, 10)).valuation == x.valuation

    def test_diverges_outside_domain(self):
        with pytest.raises(DomainError, match="exponential diverges: need valuation >= 2"):
            exp_eval(el(Q2, 2, 1, 12), 8)     # p=2 needs v >= 2
        with pytest.raises(DomainError):
            exp_eval(el(Q5, 3, 1, 12), 8)

    def test_argument_known_to_fewer_digits_than_the_target(self):
        with pytest.raises(PrecisionExhausted, match="cannot raise precision from 4 to 10"):
            exp_eval(el(Q5, 5, 1, 4), 10)

    def test_at_zero(self):
        x = FieldElement.zero_to_precision(Q5, 12)
        assert exp_eval(x, 8).agrees_with(FieldElement.one(Q5, 8), 8)


def exp_functional_check(x, y, target_prec):
    """Whether E(x + y) = E(x) E(y) modulo q^target_prec."""
    lhs = exp_eval(x + y, target_prec)
    rhs = (exp_eval(x, target_prec) * exp_eval(y, target_prec)).truncate(target_prec)
    return lhs.agrees_with(rhs, target_prec)


class TestFunctionalEquation:
    def test_addition_law(self):
        assert exp_functional_check(el(Q5, 5, 1, 16), el(Q5, 10, 1, 16), 8)
        assert exp_functional_check(el(Q2, 4, 1, 16), el(Q2, 8, 1, 16), 8)

    def test_inverse_law(self):
        for p, a in ((3, 6), (5, 5), (7, 14)):
            desc = Qp(p)
            x = el(desc, a, 1, 16)
            prod = (exp_eval(x, 8) * exp_eval(-x, 8)).truncate(8)
            assert prod.agrees_with(FieldElement.one(desc, 8), 8)

    def test_random_pairs(self):
        rng = random.Random(37)
        for _ in range(20):
            p = rng.choice([3, 5, 7])
            desc = Qp(p)
            x = el(desc, p * rng.randrange(1, p**3), 1, 18)
            y = el(desc, p * rng.randrange(1, p**3), 1, 18)
            assert exp_functional_check(x, y, 8)


class TestLog:
    def test_round_trip_exp_then_log(self):
        for p, a in ((2, 12), (3, 6), (5, 35), (7, 7)):
            desc = Qp(p)
            x = el(desc, a, 1, 18)
            z = exp_eval(x, 12)
            back = log_solve(z, 10)
            assert back.agrees_with(x, 10)

    def test_round_trip_log_then_exp(self):
        z = el(Q5, 1 + 5 * 13, 1, 16)
        x = log_solve(z, 10)
        assert exp_eval(x, 10).agrees_with(z, 10)

    def test_log_of_one_is_zero(self):
        x = log_solve(FieldElement.one(Q5, 14), 10)
        assert x.is_zero_to_precision

    def test_solves_at_the_target_not_at_z_precision(self, monkeypatch):
        # z known far beyond the target: the solve works to the target only,
        # so it builds no more coefficients than for z known to the target
        # (each solve builds its exp_series afresh, not from the memo)
        x = el(Q3, 3 * 7, 1, 60)
        fine, coarse = exp_eval(x, 60), exp_eval(x, 30)
        from_rational = FieldElement.from_rational.__func__
        counts = []
        for z in (fine, coarse):
            calls = []
            special._exp_series.cache_clear()

            def counted(cls, *args, **kwargs):
                calls.append(args)
                return from_rational(cls, *args, **kwargs)
            monkeypatch.setattr(FieldElement, "from_rational", classmethod(counted))
            root = log_solve(z, 30)
            monkeypatch.undo()
            counts.append(len(calls))
            assert root == log_solve(coarse, 30)
            assert root.agrees_with(x, 30)
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_targets_up_to_the_domain_edge_are_zero(self, p):
        """log is an isometry on the domain, v(log z) = v(z - 1) >= e_min,
        so to a target at most e_min the logarithm is zero to the target."""
        F = Qp(p)
        for a in (0, 1, p - 1, p + 1):
            z = exp_eval(el(F, a * p ** e_min(p), 1, 12), 12)
            finer = log_solve(z, e_min(p) + 4)
            for N in range(-3, e_min(p) + 1):
                x = log_solve(z, N)
                assert x == FieldElement.zero_to_precision(F, N), (a, N)
                assert finer.truncate(N) == x

    def test_domain_requires_one_plus_small(self):
        with pytest.raises(DomainError):
            log_solve(el(Q5, 2, 1, 12), 8)
        with pytest.raises(DomainError):
            log_solve(el(Q2, 3, 1, 12), 8)    # v(z-1) = 1 < 2


def exact_log_mod(p, z, k):
    """log z modulo p^k for an integer z = 1 modulo p^e_min(p), from the
    exact sum of (-1)^(j+1) (z-1)^j / j over j <= 2k + 2: every later
    term has valuation j v(z-1) - v_p(j) >= j - log2(j) > k."""
    u = z - 1
    s = sum(Fraction((-1) ** (j + 1) * u ** j, j) for j in range(1, 2 * k + 3))
    assert s.denominator % p != 0
    return s.numerator * pow(s.denominator, -1, p ** k) % p ** k


def closed_form(F, z, k):
    """_log_mod on z modulo q^k, as an element known to k digits."""
    return FieldElement.from_rational(F, special._log_mod(F.arith, z, k), 1, k)


class TestLogClosedForm:
    """log z in closed form (bit-burst binary splitting), checked on its
    own: `log_solve` certifies it with a Newton solve, which would also
    correct a wrong start, so these tests read `_log_mod` directly."""

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_matches_exact_partial_sums(self, p):
        rng = random.Random(p)
        K, s = Qp(p).arith, e_min(p)
        for k in list(range(1, 13)) + [20, 33]:
            zs = [1, 1 + p ** s, 1 + p ** k, 1 - p ** s]
            zs += [1 + p ** (s + rng.randrange(3)) * rng.randrange(1, p ** k)
                   for _ in range(6)]
            for z in zs:
                z %= p ** k
                assert special._log_mod(K, z, k) == exact_log_mod(p, z, k), (k, z)

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_matches_the_solve_from_zero(self, p):
        """Against the logarithm as Newton found it from x0 = 0
        (`log_model`), to the same precision."""
        F, s = Qp(p), e_min(p)
        rng = random.Random(10 + p)
        for N in (3, 8, 30, 100, 300):
            for _ in range(4):
                v = s + rng.randrange(4)
                z = el(F, 1 + p ** v * rng.randrange(1, p ** 8), 1 + p ** s * rng.randrange(50), N)
                want = log_model.log_solve(z, N)
                assert closed_form(F, z.unit, N) == want, (N, z)
                assert log_solve(z, N) == want

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    @pytest.mark.parametrize("N", (1000, 3000))
    def test_exp_of_the_closed_form_is_z(self, p, N):
        F = Qp(p)
        rng = random.Random(N * p)
        z = 1 + p ** e_min(p) * rng.randrange(1, p ** (N - e_min(p)))
        x = closed_form(F, z, N)
        assert exp_eval(x, N) == FieldElement(F, 0, z, N)

    def test_term_cut_off(self):
        """J, the first index from which every term e^j / j, v(e) >= lo,
        vanishes modulo p^k, against a direct search, and on the two
        inputs around a term of valuation j lo - v_p(j) = k."""
        K2 = Q2.arith
        # k = 12: the term j = 6 has j lo = k, but v_2(6) = 1 leaves it at
        # valuation 11, so it is summed; k = 11: that term is the first
        # dropped, at valuation exactly k
        assert special._log_terms(K2, 2, 12) == 7
        assert special._log_terms(K2, 2, 11) == 6
        for k in (11, 12):
            # z = 5: the first chunk is e = 4, of valuation lo = 2 exactly
            assert special._log_mod(K2, 5, k) == exact_log_mod(2, 5, k)
        for p in (2, 3, 5, 7):
            K = Qp(p).arith
            v = [0] + [factorial_valuation(p, j) - factorial_valuation(p, j - 1)
                       for j in range(1, 200)]
            for k in range(2, 70):
                for lo in range(e_min(p), k):
                    live = [j for j in range(1, 2 * k + 2) if j * lo - v[j] < k]
                    assert special._log_terms(K, lo, k) == live[-1] + 1, (p, lo, k)


@st.composite
def log_case(draw):
    """(z, N): z = 1 + p^v u known to N digits, or to fewer when short,
    v from e_min to N + 2 (z = 1 to its precision from v >= N on)."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    s = e_min(p)
    N = draw(st.integers(s + 1, 200))
    v = draw(st.integers(s, N + 2))
    u = draw(st.integers(1, p ** 12))
    prec = N if not draw(st.booleans()) else draw(st.integers(s, N - 1))
    return el(Qp(p), 1 + p ** v * u, 1, prec), N


@settings(max_examples=150, deadline=None)
@given(log_case())
def test_the_closed_form_needs_no_newton_step(case):
    """From the closed form the solve proves log z with an empty b trace,
    returning what the solve from x0 = 0 returns; z known below the target
    is still refused, as there."""
    from dvfield import rootfind
    z, N = case
    certs = []
    solve = rootfind.hensel_solve

    def spy(problem):
        certs.append(solve(problem))
        return certs[-1]
    rootfind.hensel_solve = spy
    try:
        if z.abs_precision < N:
            with pytest.raises(PrecisionExhausted):
                log_solve(z, N)
            with pytest.raises(PrecisionExhausted):
                log_model.log_solve(z, N)
            return
        x = log_solve(z, N)
    finally:
        rootfind.hensel_solve = solve
    assert len(certs) == 1 and certs[0].b_trace == ()
    assert x == log_model.log_solve(z, N)


def head_end(p):
    """H, the digit position from which the kernels sum series."""
    return special._HEAD * e_min(p)


@st.composite
def kernel_case(draw):
    """(p, x, k): x with v(x) >= e_min(p) and digits below H only (head),
    from H on only (tail), both, or none (x = 0); k from 1 to 400, k <= H
    included, and a digit forced at H - 1 or at H in some cases."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    s, H = e_min(p), head_end(p)
    k = draw(st.one_of(st.integers(1, H + 1), st.integers(1, 400)))
    shape = draw(st.sampled_from(("head", "tail", "both", "none")))
    x = 0
    if shape in ("head", "both"):
        x += p ** s * draw(st.integers(1, p ** (H - s) - 1))
    if shape in ("tail", "both"):
        x += p ** H * draw(st.integers(1, p ** max(1, k - H + 2)))
    if shape != "none":
        edge = draw(st.sampled_from((None, H - 1, H)))
        if edge is not None:
            x = x - x // p ** edge % p * p ** edge + draw(st.integers(1, p - 1)) * p ** edge
    return p, x, k


@settings(max_examples=300, deadline=None)
@given(kernel_case())
def test_kernels_match_the_model(case):
    """E(x) and log(1 + x) from the table and the series above H, against
    the series over every digit (`exp_model`), on whatever table earlier
    cases left behind."""
    p, x, k = case
    K = Qp(p).arith
    assert special._exp_mod(K, x, k) == exp_model.exp_mod(K, x, k)
    assert special._log_mod(K, 1 + x, k) == exp_model.log_mod(K, 1 + x, k)


class TestDigitTable:
    """The table of E(p^i) and E(p^i)^-1 the kernels read the digits below
    H from, one per (prime, precision), kept by `functools.lru_cache`."""

    @pytest.fixture(autouse=True)
    def no_tables(self):
        special._table.cache_clear()
        yield
        special._table.cache_clear()

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_entries_are_exponentials_and_their_inverses(self, p):
        K, s = Qp(p).arith, e_min(p)
        k = 60
        up, down = special._table(K, k, False), special._table(K, k, True)
        assert len(up) == len(down) == head_end(p) - s
        for i, (e, f) in enumerate(zip(up, down), start=s):
            assert e == exp_model.exp_mod(K, p ** i, k), i
            assert e * f % p ** k == 1

    def test_grows_and_is_reused(self):
        rng = random.Random(25)
        for p in (2, 3, 5, 7):
            K, s = Qp(p).arith, e_min(p)
            for k in (50, 300, 30):
                for _ in range(3):
                    x = p ** s * rng.randrange(1, p ** k)
                    assert special._exp_mod(K, x, k) == exp_model.exp_mod(K, x, k), (p, k)
                    assert special._log_mod(K, 1 + x, k) == exp_model.log_mod(K, 1 + x, k)
            # read at 30 after 300: entries modulo p^30, built once
            for inverses in (False, True):
                table = special._table(K, 30, inverses)
                assert all(0 <= e < p ** 30 for e in table)
                assert special._table(K, 30, inverses) is table
            assert special._table(K, 30, False) == tuple(
                exp_model.exp_mod(K, p ** i, 30) for i in range(s, head_end(p)))
        # (p, k, inverses) for p in 2, 3, 5, 7, k in 50, 300, 30, both kinds
        assert special._table.cache_info().currsize == 24

    def test_tables_kept_are_bounded(self):
        kept = special._table.cache_info().maxsize
        K = Qp(3).arith
        top = special._table(K, 300, False)
        for k in range(2, 2 + 3 * kept):
            assert special._table(K, k, False) == tuple(e % 3 ** k for e in top)
            assert special._table.cache_info().currsize <= kept

    def test_built_from_one_series_sum_per_precision(self, monkeypatch):
        sums = []
        exp_sum = special._exp_sum

        def counted(*args):
            sums.append(args[1:])
            return exp_sum(*args)
        monkeypatch.setattr(special, "_exp_sum", counted)
        for p in (2, 3, 5, 7):
            K, s, H = Qp(p).arith, e_min(p), head_end(p)
            head = p ** H - p ** s          # the digit p - 1 at every i in [s, H)
            for k in (300, 120):
                special._exp_mod(K, head, k)
                assert sums == [(p ** s, s, k)]
                special._exp_mod(K, head, k)
                assert special._table.cache_info().currsize == 1   # exp reads no inverse
                special._log_mod(K, 1 + head, k)
                assert len(sums) == 1 and special._table.cache_info().currsize == 2
                sums.clear()
                special._table.cache_clear()

    def test_no_table_without_head_digits(self):
        for p in (2, 3, 5, 7):
            K, H = Qp(p).arith, head_end(p)
            for k in (1, e_min(p), H, 200):
                assert special._exp_mod(K, 0, k) == 1 % p ** k
                assert special._exp_mod(K, p ** H * 5, k) == exp_model.exp_mod(K, p ** H * 5, k)
                assert special._log_mod(K, 1, k) == 0
                assert special._log_mod(K, 1 + p ** H, k) == exp_model.log_mod(K, 1 + p ** H, k)
        assert special._table.cache_info().currsize == 0


class TestSeriesMemo:
    def test_log_solve_builds_the_coefficients_once(self, monkeypatch):
        special._exp_series.cache_clear()
        z = exp_eval(el(Q5, 5 * 3, 1, 40), 40)
        from_rational = FieldElement.from_rational.__func__
        counts = []
        for _ in range(2):
            calls = []

            def counted(cls, *args):
                calls.append(args)
                return from_rational(cls, *args)
            monkeypatch.setattr(FieldElement, "from_rational", classmethod(counted))
            x = log_solve(z, 40)
            monkeypatch.undo()
            counts.append(len(calls))
            assert x == log_model.log_solve(z, 40)
        assert counts[0] - counts[1] == exp_series(Q5, 40).stored_len == 5

    def test_the_memo_is_bounded(self):
        special._exp_series.cache_clear()
        kept = special._exp_series.cache_info().maxsize
        for N in range(1, 3 * kept):
            E = exp_series(Q3, N)
            assert special._exp_series.cache_info().currsize <= kept
            assert exp_series(Q3, N) is E
