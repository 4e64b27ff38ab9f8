"""Fuzzing of the solve loop against the full-precision reference loop.

`solve_model.py` keeps the loop that evaluates f and f' at the working
precision on every step and returns its iterates as they come.  On
every drawn problem the library must:

- be right at every claimed digit against the exact root;
- claim at least the target: abs_precision >= target, proven by a
  residual_prec >= target + max(e_fp, 0);
- refuse only where the model refuses, or where target + e_fp exceeds
  the working precision (or the digits of z - f(x0) that eval
  certifies at it);
- where both answer, give the model's `uniqueness_exponent` and
  `derivative_magnitude`, with b_(l+1) <= b_l^2 along the Newton b
  trace.

Problems: polynomials with exact rational roots over Q_p, p in
{2, 3, 5, 7}, and with roots in F_q[T] over F_q((T)), q in {3, 5, 7},
some terminating (integers, 2/3), some with a right-hand side z != 0;
v(f'(root)) < 0 (X^2 - a^2/p^2 on m = -1), = 0, and > 0 (squares over
Q_2, X^2 - p^2 c, roots close mod q); targets up to the working
precision; and the exponential solved from 0, as `log_solve` does.

A last strategy draws polynomials with coefficients of negative
valuation and uneven precision that nearly vanish at a random point,
where eval certifies fewer digits at some iterates than at x0.  Their
exact root is the one of the polynomial whose coefficients, x0 and z
are taken as exact points (zero digits padded): a certificate holds for
every lift of the data, so it holds for that one, whose root the model
finds to many more digits.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solve_model as model
from dvfield import rootfind
from dvfield.localfield import FieldElement, Qp, laurent_field
from dvfield.rootfind import (HenselProblem, _as_exact, _problem_state,
                              fixed_point_solve, hensel_solve)
from dvfield.series import TruncatedSeries, polynomial
from dvfield.special import e_min, exp_eval, exp_series

FUZZ = settings(max_examples=200, deadline=None)


def outcome(call):
    """A certificate, or the error class and message."""
    try:
        return ("ok", call())
    except Exception as exc:             # judged by check(), not swallowed
        return ("error", type(exc).__name__, str(exc))


# -- problems with exact roots -----------------------------------------------

def poly_from_roots(roots, lead=1):
    """Coefficients (lowest first) of lead * prod (X - r)."""
    coeffs = [Fraction(lead)]
    for r in roots:
        shifted = [Fraction(0)] + coeffs
        for j, c in enumerate(coeffs):
            shifted[j] -= r * c
        coeffs = shifted
    return coeffs


def laurent_mul(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def laurent_poly_from_roots(roots, q):
    """Coefficients in F_q[T] (digit lists, lowest first) of prod (X - r)."""
    coeffs = [[1]]
    for r in roots:
        neg = [(-d) % q for d in r]
        shifted = [[0]] + coeffs
        for j, c in enumerate(coeffs):
            prod = laurent_mul(neg, c, q)
            width = max(len(shifted[j]), len(prod))
            shifted[j] = [((shifted[j] + [0] * width)[i] + (prod + [0] * width)[i]) % q
                          for i in range(width)]
        coeffs = shifted
    return coeffs


def laurent_element(F, digits, prec):
    digits = list(digits[:prec]) or [0]
    return FieldElement.from_digits(F, 0, digits, max(prec, len(digits)))


def target(W):
    """Mostly the working precision, where the most steps run."""
    return st.one_of(st.just(W), st.integers(1, W))


@st.composite
def padic_case(draw):
    """(problem, the exact roots) over Q_p."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    F = Qp(p)
    W = draw(st.integers(4, 48))
    families = ("simple", "simple", "negative", "square", "fraction")
    family = draw(st.sampled_from(families if p != 2 else families[:2] + families[3:]))
    m = 0
    if family == "simple":
        roots = [Fraction(draw(st.integers(-60, 60))) for _ in range(draw(st.integers(1, 3)))]
    elif family == "fraction":
        # non-terminating expansions: denominators prime to p
        dens = [d for d in (1, 2, 3, 5, 7, 11) if d % p]
        roots = [Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from(dens)))
                 for _ in range(draw(st.integers(1, 3)))]
    elif family == "negative":
        # X^2 - a^2/p^2 on v(x) >= -1: root a/p, v(f'(root)) = v(2a/p) = -1
        a = draw(st.integers(1, 3 * p))
        a += (a % p == 0)
        roots = [Fraction(a, p), Fraction(-a, p)]
        m = -1
    else:
        # v(f'(root)) > 0: X^2 - s^2 over Q_2, X^2 - p^2 s^2 otherwise
        s = 2 * draw(st.integers(0, 20)) + 1
        if p != 2:
            s = p * (s + (s % p == 0))
        roots = [Fraction(s), Fraction(-s)]
    r = roots[0]
    coeffs = poly_from_roots(roots, draw(st.sampled_from((1, 1, 2, Fraction(1, 3)))))
    z0 = Fraction(draw(st.sampled_from((0, 0, 1, -2, p))))
    coeffs[0] += z0
    f = polynomial(F, coeffs, W)
    # x0 = r + p^k u, at the working precision (one or six more digits
    # sometimes, which every iterate keeps)
    k = draw(st.integers(max(m, 0) + 1 if family != "negative" else 0, 6))
    u = draw(st.integers(1, p * p))
    x_prec = W + draw(st.sampled_from((0, 0, 1, 6)))
    x0 = FieldElement.from_rational(F, r.numerator + p ** k * u * r.denominator,
                                    r.denominator, x_prec)
    z = FieldElement.from_rational(F, z0.numerator, z0.denominator, W)
    return HenselProblem(f, x0, z, m, draw(target(W))), roots


@st.composite
def laurent_case(draw):
    q = draw(st.sampled_from((3, 5, 7)))
    F = laurent_field(q)
    W = draw(st.integers(4, 40))
    n = draw(st.integers(1, 3))
    roots = [[c] + draw(st.lists(st.integers(0, q - 1), min_size=0, max_size=4))
             for c in draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))]
    coeffs = laurent_poly_from_roots(roots, q)
    f = TruncatedSeries(F, tuple(laurent_element(F, c, W) for c in coeffs))
    r = roots[0]
    k = draw(st.integers(1, 6))
    bump = [0] * k + [draw(st.integers(1, q - 1)), draw(st.integers(0, q - 1))]
    width = max(len(r), len(bump))
    start = [((r + [0] * width)[i] + (bump + [0] * width)[i]) % q for i in range(width)]
    x0 = laurent_element(F, start, W)
    z = FieldElement.zero_to_precision(F, W)
    return HenselProblem(f, x0, z, 0, draw(target(W))), roots


def exact_digits_agree(root, roots, k):
    """Whether root agrees with one of the exact roots modulo q^k."""
    return any(agrees(root, exact, k) for exact in roots)


def agrees(root, exact, k):
    F = root.descriptor
    if isinstance(exact, FieldElement):
        e = exact
        assert e.abs_precision >= k, "the exact root is known to too few digits"
    elif isinstance(exact, Fraction):
        if exact == 0:
            e = FieldElement.zero_to_precision(F, k + 8)
        else:
            e = FieldElement.from_rational(F, exact.numerator, exact.denominator, k + 8)
    else:
        e = laurent_element(F, exact + [0] * (k + 8), k + 8)
    d = root.truncate(min(root.abs_precision, k)) - e.truncate(min(e.abs_precision, k))
    return d.valuation_lower_bound >= min(k, root.abs_precision)


def lifted_root(problem, extra=64):
    """The root near x0 of f(x) = z with the coefficients of f, x0 and z
    taken as exact points modulo q^(W + extra), W the largest precision
    among them; from the model, to the digits its residual proves.  The
    model's iterates lose v(f'(x0)) digits a step, so it solves to
    W + extra / 2 only."""
    data = (*problem.f.coeffs, problem.x0, problem.z)
    H = max(c.abs_precision for c in data) + extra
    f = TruncatedSeries(problem.f.descriptor,
                        tuple(_as_exact(c, H) for c in problem.f.coeffs))
    lifted = HenselProblem(f, _as_exact(problem.x0, H), _as_exact(problem.z, H),
                           problem.m, H - extra // 2)
    cert = model.hensel_solve(lifted)
    x = cert.root
    return x.truncate(min(x.abs_precision,
                          cert.residual_prec - cert.derivative_magnitude.exponent))


def beyond_working_precision(problem):
    """Whether target + max(e_fp, 0) exceeds the working precision, or
    the digits of z - f(x0) that eval certifies there."""
    try:
        state = _problem_state(problem)
    except Exception:
        return False
    need = problem.target_prec + max(state.fp0.valuation, 0)
    return need > min(state.prec, state.d0.abs_precision)


def check(problem, roots, solve, model_solve, newton=True):
    """The contract above; with roots None the exact root is the lifted
    problem's."""
    got = outcome(lambda: solve(problem))
    want = outcome(lambda: model_solve(problem))
    if got[0] == "error":
        assert want[0] == "error" or beyond_working_precision(problem), (got, want)
        return
    cert = got[1]
    e_fp = cert.derivative_magnitude.exponent
    assert cert.root.abs_precision >= problem.target_prec
    assert cert.residual_prec >= problem.target_prec + max(e_fp, 0)
    if roots is None:
        roots = [lifted_root(problem)]
    assert exact_digits_agree(cert.root, roots, cert.root.abs_precision)
    if want[0] == "ok":
        ref = want[1]
        assert cert.uniqueness_exponent == ref.uniqueness_exponent
        assert cert.derivative_magnitude == ref.derivative_magnitude
    if newton:
        exps = [b.exponent for b in cert.b_trace]
        for a, b in zip(exps, exps[1:]):
            assert b >= a + a                   # b_(l+1) <= b_l^2


@FUZZ
@given(st.one_of(padic_case(), laurent_case()))
def test_newton_matches_the_model(case):
    problem, roots = case
    check(problem, roots, hensel_solve, model.hensel_solve)


@FUZZ
@given(st.one_of(padic_case(), laurent_case()))
def test_fixed_point_matches_the_model(case):
    problem, roots = case
    check(problem, roots, fixed_point_solve, model.fixed_point_solve, newton=False)


@st.composite
def exp_case(draw):
    """E(x) = z solved from 0 as log_solve does; the root is x."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    F = Qp(p)
    N = draw(st.integers(2, 80))
    v = e_min(p) + draw(st.integers(0, 3))
    num = draw(st.integers(1, 10 ** 6))
    num += (num % p == 0)
    den = draw(st.integers(1, 50))
    den += (den % p == 0)
    x = FieldElement.from_rational(F, p ** v * num, den, N + 4)
    z = exp_eval(x, N)
    problem = HenselProblem(exp_series(F, N), FieldElement.zero_to_precision(F, N),
                            z, e_min(p), N)
    return problem, [Fraction(p ** v * num, den)]


@settings(max_examples=100, deadline=None)
@given(exp_case())
def test_exponential_matches_the_model(case):
    problem, roots = case
    check(problem, roots, hensel_solve, model.hensel_solve)


@st.composite
def digits_element(draw, F, prec, v):
    """An element of valuation v known modulo q^max(prec, v + 1), all
    digits drawn."""
    k = max(prec - v, 1)
    digits = [draw(st.integers(1, F.q - 1))]
    digits += draw(st.lists(st.integers(0, F.q - 1), min_size=k - 1, max_size=k - 1))
    return FieldElement.from_digits(F, v, digits, v + k)


@st.composite
def near_root_case(draw):
    """f = a_0 + a_1 X + ... with random a_1.. of valuations -2..3 and
    precisions near the working precision, and a_0 chosen so that f
    nearly vanishes at a random point x_r; x0 = x_r + q^k u.  Products
    and sums lose digits at negative valuations, so eval certifies less
    at some points than at others: the regime where the full-precision
    loop cuts its iterates step by step."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    F = Qp(q) if draw(st.booleans()) else laurent_field(q)
    W = draw(st.integers(6, 40))
    m = draw(st.integers(-2, 2))
    hi = [draw(digits_element(F, W + draw(st.integers(-3, 3)), draw(st.integers(-2, 3))))
          for _ in range(draw(st.integers(1, 4)))]
    xr = draw(digits_element(F, W + draw(st.integers(-2, 3)), m + draw(st.integers(0, 2))))
    a0, power = FieldElement.zero_to_precision(F, W + 3), xr
    for a in hi:
        a0, power = a0 - a * power, power * xr
    f = TruncatedSeries(F, (a0, *hi))
    k = m + draw(st.integers(0, 3))
    bump = FieldElement(F, k, draw(st.integers(1, q - 1)), max(k + 1, W + draw(st.integers(-1, 3))))
    z = FieldElement.zero_to_precision(F, W + draw(st.integers(-2, 3)))
    return HenselProblem(f, xr + bump, z, m, draw(st.integers(max(1, W - 6), W + 3))), None


@settings(max_examples=300, deadline=None)
@given(near_root_case())
def test_newton_near_random_roots_matches_the_model(case):
    problem, roots = case
    check(problem, roots, hensel_solve, model.hensel_solve)


def _e(F, v, digits, prec):
    return FieldElement.from_digits(F, v, digits, prec)


_Q3, _Q7, _L2, _L3 = Qp(3), Qp(7), laurent_field(2), laurent_field(3)
FOUND = {
    # eval loses a digit at every iterate of valuation -1: the
    # full-precision loop cuts its iterates step by step and refuses at
    # the target
    "iterates cut by eval": (HenselProblem(
        TruncatedSeries(_Q7, (FieldElement(_Q7, -2, 3_219_905_755_813_179_726_801_262, 27),
                              _e(_Q7, -1, [4], 32), _e(_Q7, 3, [1], 31),
                              _e(_Q7, 2, [1], 31), _e(_Q7, 2, [1, 6], 31))),
        _e(_Q7, -1, [5, 1], 31), FieldElement.zero_to_precision(_Q7, 31), -1, 25), None),
    # residuals of negative valuation: the full-precision step keeps
    # w - 2e_fp + (digits of f'(x)) digits, fewer than the iterate had
    "negative residual valuation": (HenselProblem(
        TruncatedSeries(_L2, (_e(_L2, -2, [1, 1], 6), _e(_L2, 0, [1], 11),
                              _e(_L2, 3, [1], 10))),
        FieldElement.zero_to_precision(_L2, 9), FieldElement.zero_to_precision(_L2, 9),
        -2, 3), None),
    # the first iterate cancels to two digits, below the target: the
    # full-precision loop refuses there
    "iterate below the target": (HenselProblem(
        TruncatedSeries(_L2, (_e(_L2, -1, [1, 0, 1], 4), _e(_L2, 0, [1], 7),
                              _e(_L2, 3, [1], 8))),
        _e(_L2, -2, [1, 1], 4), FieldElement.zero_to_precision(_L2, 6), -2, 3), None),
    # (X - 17/11)(X - 1/2)(X - 33)/3 from 17/11 + 3: the second
    # scheduled iterate's residual lands one digit above the
    # full-precision loop's, so the last step stops at residual 16,
    # where the full-precision loop takes one more step to 17
    "a digit faster": (HenselProblem(
        polynomial(_Q3, poly_from_roots([Fraction(17, 11), Fraction(1, 2), 33],
                                        Fraction(1, 3)), 17),
        FieldElement.from_rational(_Q3, 17 + 3 * 11, 11, 18),
        FieldElement.zero_to_precision(_Q3, 17), 0, 16),
        [Fraction(17, 11), Fraction(1, 2), Fraction(33)]),
    # a linear f with v(f') = 3 at target 1: the root keeps 2 digits,
    # too few to read v(f'(root)) at, so the closing check reads the
    # iterate before it is cut
    "derivative read before the cut": (HenselProblem(
        TruncatedSeries(_L3, (_e(_L3, 6, [1, 2], 8), _e(_L3, 3, [2, 2, 2], 6))),
        _e(_L3, 2, [1, 1, 1], 5), FieldElement.zero_to_precision(_L3, 9), 1, 1), None),
    # x0 known one digit past the working precision 14, with v(a1) = -1:
    # an iterate cut to the working precision drops x0's last digit, and
    # eval there certifies only 13 digits
    "x0 known past the working precision": (HenselProblem(
        TruncatedSeries(_Q3, (_e(_Q3, -1, [1, 2, 2, 1, 1, 2, 0, 0, 0, 1, 2, 2, 1, 2, 1], 14),
                              _e(_Q3, -1, [1, 2, 2, 1, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0,
                                           1], 16))),
        _e(_Q3, -1, [1, 2, 2, 2, 2, 1, 2, 1, 0, 0, 2, 0, 1, 0, 0, 0], 15),
        FieldElement.zero_to_precision(_Q3, 16), -1, 14), None),
    # (X - 3)(X - 35)/3 from 12, known one digit past the working
    # precision 10: the solve once ran again from x0 after an iterate cut
    # to the working precision certified too few digits
    "a restart from x0": (HenselProblem(
        polynomial(_Q3, [35, Fraction(-38, 3), Fraction(1, 3)], 10),
        FieldElement.from_rational(_Q3, 12, 1, 11), FieldElement.zero_to_precision(_Q3, 10),
        0, 10), [Fraction(3), Fraction(35)]),
}


@pytest.mark.parametrize("name", FOUND)
def test_found_cases_match_the_model(name):
    problem, roots = FOUND[name]
    check(problem, roots, hensel_solve, model.hensel_solve)


def test_x0_known_past_the_working_precision_is_answered():
    """Both solvers keep x0's 15th digit in every iterate and prove all
    15 digits of -a0/a1."""
    problem, _ = FOUND["x0 known past the working precision"]
    a0, a1 = problem.f.coeffs
    for solve in (hensel_solve, fixed_point_solve):
        cert = solve(problem)
        assert cert.root.abs_precision == 15
        assert agrees(cert.root, -a0 / a1, 15)


def test_a_restart_from_x0_is_one_pass(monkeypatch):
    """One solve loop from x0 gives the certificate the second pass gave."""
    problem, roots = FOUND["a restart from x0"]
    passes = []
    solve_loop = rootfind._solve
    monkeypatch.setattr(rootfind, "_solve",
                        lambda *a, **k: passes.append(1) or solve_loop(*a, **k))
    cert = hensel_solve(problem)
    assert len(passes) == 1
    assert (cert.root.abs_precision, cert.residual_prec, cert.uniqueness_exponent,
            tuple(b.exponent for b in cert.b_trace),
            cert.derivative_magnitude.exponent) == (11, 10, 2, (2, 4, 8), -1)
    assert exact_digits_agree(cert.root, roots[:1], 11)


def test_a_digit_faster_claims_only_certified_digits():
    """The scheduled loop stops at residual_prec 16, one step before the
    full-precision loop: the root keeps the 16 - v(f'(root)) = 17 digits
    that residual proves, all of them 17/11's."""
    problem, roots = FOUND["a digit faster"]
    cert = hensel_solve(problem)
    assert cert.residual_prec == 16
    assert cert.root.abs_precision == 17
    assert exact_digits_agree(cert.root, roots[:1], 17)


def test_root_below_full_precision_claims_only_certified_digits():
    """A scheduled step lands on a residual that reaches the target but
    proves fewer digits than the iterate is known to: the root keeps the
    residual_prec - e_fp digits it proves, each of them the lifted
    problem's."""
    f = TruncatedSeries(_L3, (
        _e(_L3, -3, [2, 0, 2, 1, 0, 0, 2, 1, 0, 1, 2, 2, 0, 2, 2, 2, 1, 2, 1, 2, 1, 2, 2, 0, 1], 22),
        _e(_L3, -2, [2, 1, 1, 0, 1, 0, 2, 2, 0, 0, 0, 1, 0, 0, 2, 1, 0, 1, 0, 2, 0, 1, 1, 1, 1,
                     0, 2, 1], 26),
        _e(_L3, 3, [1, 1, 1, 0, 1, 0, 2, 2, 0, 0, 0, 1, 0, 0, 2, 1, 0, 1, 0, 2, 0], 24),
        _e(_L3, 1, [1, 1, 0, 2, 1, 0, 1, 2, 0, 2, 1, 2, 0, 1, 2, 2, 1, 2, 0, 1, 0, 0, 0, 0, 1,
                    1], 27)))
    x0 = _e(_L3, -1, [2, 2, 1, 0, 0, 0, 2, 1, 1, 0, 1, 0, 2, 2, 0, 0, 0, 1, 0, 0, 2, 1, 0, 1,
                      0, 2, 0], 26)
    problem = HenselProblem(f, x0, FieldElement.zero_to_precision(_L3, 28), -1, 20)
    cert = hensel_solve(problem)
    e_fp = cert.derivative_magnitude.exponent
    assert cert.root.abs_precision == cert.residual_prec - e_fp
    assert cert.root.abs_precision < model.hensel_solve(problem).root.abs_precision
    assert agrees(cert.root, lifted_root(problem), cert.root.abs_precision)
