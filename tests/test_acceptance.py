"""End-to-end acceptance suite: eight exact-oracle criteria, one test
(and one printed pass line) per criterion.  Every expected value is
computed by an independent method (direct factor counting, exhaustive
residue search, exact rational arithmetic) and compared exactly."""

import math
import random
from fractions import Fraction

from dvfield.errors import (AllCoefficientsIndistinguishableFromZero,
                            TailInconclusive, UndecidedMultipleRoot)
from dvfield.localfield import FieldElement, Qp, laurent_field, laurent_invert
from dvfield.measure import (BallSpec, DimensionValue, digit_set_analysis,
                             haar_union_measure, scale_family)
from dvfield.rootfind import (HenselProblem, enumerate_roots,
                              fixed_point_solve, hensel_solve,
                              strassmann_bound)
from dvfield.series import polynomial
from dvfield.special import e_min, exp_eval, log_solve
from dvfield.valuation import factorial_valuation

PRIMES = (2, 3, 5, 7)


def el(desc, num, den=1, prec=12):
    return FieldElement.from_rational(desc, num, den, prec)


def _count_factors(p, n):
    c = 0
    while n % p == 0:
        n //= p
        c += 1
    return c


def test_criterion_1_legendre_formula():
    for p in PRIMES:
        running = 0
        for j in range(1, 2001):
            running += _count_factors(p, j)
            assert factorial_valuation(p, j) == running
        for j in (p, p**2, p**3):
            assert (p - 1) * factorial_valuation(p, j) == j - 1
    print("criterion 1 (Legendre formula, j <= 2000, p in 2,3,5,7): PASS")


def _sqrt_instances():
    """Fixed-seed quadratic-residue instances shared by criteria 2 and 8."""
    rng = random.Random(2024)
    out = []
    for p in (3, 5, 7, 11):
        for _ in range(20):
            x_true = rng.randrange(1, p**4)
            while x_true % p == 0:
                x_true = rng.randrange(1, p**4)
            out.append((p, x_true))
    return out


def _sqrt_problem(p, x_true):
    desc = Qp(p)
    c = x_true * x_true
    f = polynomial(desc, [-c, 0, 1], 20)
    x0 = el(desc, x_true % p, 1, 20)
    z = FieldElement.zero_to_precision(desc, 20)
    return HenselProblem(f, x0, z, 0, 8), c


def test_criterion_2_hensel_square_root_oracle():
    for p, x_true in _sqrt_instances():
        problem, c = _sqrt_problem(p, x_true)
        cert = hensel_solve(problem)
        root = cert.root
        # overlap with the exhaustive square search modulo p^4
        matches = {x for x in range(p**4) if (x * x - c) % p**4 == 0
                   and x % p == x_true % p}
        assert root.reduce_mod(4) in matches
        assert matches == {x_true % p**4}
        # squaring returns c + O(p^8)
        sq = (root * root).truncate(8)
        assert sq.agrees_with(el(Qp(p), c, 1, 8), 8)
        # quadratic convergence of the b trace
        exps = [b.exponent for b in cert.b_trace]
        for a, b in zip(exps, exps[1:]):
            assert b >= 2 * a
    print("criterion 2 (Hensel square roots, 20 x p in 3,5,7,11): PASS")


def test_criterion_3_strassmann_soundness():
    rng = random.Random(99)
    redraws = 0
    for p in (3, 5):
        desc = Qp(p)
        done = 0
        while done < 100:
            deg = rng.randrange(1, 6)
            coeffs = [rng.randrange(-p**4, p**4) for _ in range(deg + 1)]
            if all(c == 0 for c in coeffs):
                continue
            f = polynomial(desc, coeffs, 16)
            try:
                bound = strassmann_bound(f, 0).bound_N
                certs = enumerate_roots(f, 0, target_prec=4)
            except (UndecidedMultipleRoot, TailInconclusive,
                    AllCoefficientsIndistinguishableFromZero):
                redraws += 1          # refusal, not a wrong answer
                continue
            assert len(certs) <= bound
            for cert in certs:
                assert f.eval(cert.root, 4).is_zero_to_precision
            done += 1
    f = polynomial(Qp(3), [0, -1, 0, 1], 16)
    assert strassmann_bound(f, 0).bound_N == 3
    assert len(enumerate_roots(f, 0, target_prec=4)) == 3
    print(f"criterion 3 (Strassmann soundness, 200 polynomials, "
          f"{redraws} refusals redrawn): PASS")


def test_criterion_4_exponential_identities():
    rng = random.Random(424)
    for p in PRIMES:
        desc = Qp(p)
        lo = e_min(p)
        for _ in range(100):
            a = p**lo * rng.randrange(1, p**4)
            b = p**lo * rng.randrange(1, p**4)
            x = el(desc, a, 1, 38)
            y = el(desc, b, 1, 38)
            ex = exp_eval(x, 30)
            ey = exp_eval(y, 30)
            assert (ex - FieldElement.one(desc, 30)).valuation == x.valuation
            assert exp_eval(x + y, 30).agrees_with((ex * ey).truncate(30), 30)
            assert (ex * exp_eval(-x, 30)).truncate(30).agrees_with(
                FieldElement.one(desc, 30), 30)
            assert log_solve(ex, 30).agrees_with(x, 30)
    print("criterion 4 (exponential identities, 100 pairs x p in 2,3,5,7, "
          "mod q^30): PASS")


def _union_residues(family, p, s):
    covered = set()
    for b in family:
        j = b.radius_exponent
        c = 0 if b.center.is_zero_to_precision else b.center.reduce_mod(j) \
            if j > 0 else 0
        covered.update(range(c, p**s, p**j))
    return covered


def test_criterion_5_haar_measure_oracle():
    rng = random.Random(55)
    s = 4
    for p in (3, 5):
        desc = Qp(p)
        for _ in range(500):
            family = []
            for _ in range(rng.randrange(1, 9)):
                j = rng.randrange(0, s)
                center = el(desc, rng.randrange(0, p**s), 1, s + 2)
                family.append(BallSpec.make(center, j))
            measure = haar_union_measure(family)
            count = len(_union_residues(family, p, s))
            assert measure * p**s == count
            # scaling law H(cE) = |c| H(E), exact
            c = el(desc, p**rng.randrange(0, 3) * rng.randrange(1, p), 1, s + 4)
            scaled, ratio = scale_family(c, family)
            assert ratio == Fraction(p) ** (-c.valuation)
            assert haar_union_measure(scaled) == ratio * measure
    print("criterion 5 (Haar measure vs residue counting, 500 families x "
          "p in 3,5): PASS")


def test_criterion_6_digit_set_dimension():
    beta = DimensionValue(2, 3)          # log 2 / log 3, held exactly
    for depth in range(1, 13):
        report = digit_set_analysis(3, [0, 2], depth, beta)
        assert report.content_estimate.compare_to_one() == 0
    for n in range(1, 11):
        report = digit_set_analysis(3, [0, 2], n, beta)
        assert report.ball_count == 2**n
        assert len(set(report.cover_codes)) == 2**n
        for code in report.cover_codes:
            v = code
            for _ in range(n):
                v, d = divmod(v, 3)
                assert d in (0, 2)
    print("criterion 6 (digit-set content and box counts, depths 1..12): PASS")


def test_criterion_7_field_axioms():
    rng = random.Random(77)
    for desc in (Qp(5), laurent_field(3)):
        q = desc.q
        for _ in range(10**4):
            a = rng.randrange(-q**6, q**6)
            b = rng.randrange(-q**6, q**6)
            if desc.kind.value == "laurent":
                # integers embed as residue constants; build varied
                # valuations with explicit shifts instead
                va, vb = rng.randrange(-3, 4), rng.randrange(-3, 4)
                x = el(desc, rng.randrange(1, q), 1, 12).shift(va)
                y = el(desc, rng.randrange(1, q), 1, 12).shift(vb)
            else:
                if a == 0 or b == 0:
                    continue
                x = el(desc, a, 1, 14)
                y = el(desc, b, 1, 14)
            prod = x * y
            assert prod.valuation == x.valuation + y.valuation
            s = x + y
            assert s.valuation_lower_bound >= min(x.valuation, y.valuation)
            if x.valuation != y.valuation:
                assert s.valuation == min(x.valuation, y.valuation)
    for q in (2, 3, 5):
        desc = laurent_field(q)
        rng2 = random.Random(700 + q)
        for _ in range(100):
            f = el(desc, rng2.randrange(1, q), 1, 10)
            for k in range(1, 8):
                f = f + el(desc, rng2.randrange(0, q), 1, 10).shift(k)
            inv = laurent_invert(f, 8)
            assert (f * inv).agrees_with(el(desc, 1, 1, 8), 8)
    print("criterion 7 (field axioms 10^4 samples/field; Laurent inversion "
          "100 x q in 2,3,5): PASS")


def test_criterion_8_method_agreement():
    for p, x_true in _sqrt_instances():
        problem, _ = _sqrt_problem(p, x_true)
        a = hensel_solve(problem)
        b = fixed_point_solve(problem)
        assert a.root.agrees_with(b.root, 8)
    print("criterion 8 (hensel_solve vs fixed_point_solve on criterion-2 "
          "instances): PASS")
