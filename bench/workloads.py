"""The benchmark's seeded workloads: the four that BENCHMARK.json lists,
and roots-mixed, which keeps the inputs the library answers wrongly
(ROADMAP item 2) and is run by name only.

Each workload hands out rounds of operations.  A round is a fixed list
of templates (field, precision tier, kind of answer); the seed only picks
the arguments inside each template, so every round costs about the same
and a run that stops on a round boundary always measures the same mix.
Every operation is one certified answer requested the way a user would
request it, paired with the outcome it must have: a value, checked by an
independent oracle at the precision the answer claims, or a named
refusal.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import dvfield as dv
from dvfield.series import TruncatedSeries

import oracles as orc

OK, WRONG, SHORT = "ok", "wrong", "short"


@dataclass
class Op:
    """One certified answer: call() runs it; check(value) judges a
    returned value as OK, WRONG (disagrees with the oracle at its claimed
    precision) or SHORT (right, but less precise than requested)."""

    kind: str
    tier: int                  # precision N, family size or digit depth
    top: bool                  # in the top precision tier (hi_prec_p50_ms)
    call: Callable[[], object]
    check: Optional[Callable[[object], str]] = None
    expect: str = "value"      # or the class name of the expected refusal
    inputs: tuple = ()         # plain-data description of the generated inputs

    def outcome(self, value, exc: Optional[BaseException]) -> str:
        """"ok" when the call did what was expected, else why not:
        WRONG, SHORT, "answered" (a refusal was expected), "refused" (an
        answer was expected), "wrong_error" or "untyped" (an exception
        that is not one of the library's typed errors)."""
        if exc is None:
            if self.expect != "value":
                return "answered"
            try:
                return self.check(value)
            except Exception:       # a value the oracle cannot even read is wrong
                return WRONG
        if isinstance(exc, CliRefusal):
            name = exc.name
        elif isinstance(exc, (dv.UltrametricError, dv.ParseError)):
            name = type(exc).__name__
        else:
            return "untyped"
        if name == self.expect:
            return OK
        return "refused" if self.expect == "value" else "wrong_error"


class CliRefusal(Exception):
    """A CLI child ended with a typed refusal (exit 1 or 2); name is the
    error class the CLI reported."""

    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"{name}: {detail}")
        self.name = name


class CliCrash(Exception):
    """A CLI child died with an untyped exception."""


# -- element builders (library calls only through public constructors) --

def padic(F, x, prec: int):
    x = Fraction(x)
    return dv.FieldElement.from_rational(F, x.numerator, x.denominator, prec)


def laurent(F, digits: Sequence[int], prec: int):
    x = dv.FieldElement.zero_to_precision(F, prec)
    for i, d in enumerate(digits[:prec]):
        if d % F.q:
            x = x + dv.FieldElement.from_rational(F, d, 1, prec - i).shift(i)
    return x


def digits_of(code: int, q: int, n: int) -> List[int]:
    out = []
    for _ in range(n):
        code, d = divmod(code, q)
        out.append(d)
    return out


def _unit(rng: random.Random, p: int, bound: int) -> int:
    while True:
        u = rng.randrange(1, bound)
        if u % p:
            return u


def _check_element(known: Callable[[int], int], want: int):
    """Check for a single returned element whose true value has the
    residue known(k) modulo q^k."""
    def check(x) -> str:
        k = x.abs_precision
        if x.reduce_mod(k) != known(k):
            return WRONG
        return SHORT if k < want else OK
    return check


def _check_root(known: Callable[[int], int], want: int):
    inner = _check_element(known, want)
    return lambda cert: inner(cert.root)


def _check_roots(known: Sequence[Callable[[int], int]], want: int):
    def check(certs) -> str:
        found = [(c.root.reduce_mod(c.root.abs_precision), c.root.abs_precision)
                 for c in certs]
        if not orc.match_roots(found, known):
            return WRONG
        return SHORT if any(k < want for _, k in found) else OK
    return check


# -- padic-exp-log ----------------------------------------------------

class PadicExpLog:
    """exp_eval over Q_p, p in {2,3,5,7}, on a ladder of precisions from
    N = 30 to 300, and exp -> log_solve round trips from N = 30 to 100.
    One exp and one log argument per prime and round lie outside the
    domain, and one log argument per round is no unit.  The ladder
    spreads the costs evenly.  A round has 53 operations, one of each
    kind: with an odd count latency_p50_ms is the median of one kind's
    latencies, and latency_p90_ms sits where two kinds cost the same,
    instead of on the edge between two kinds that differ twofold."""

    name = "padic-exp-log"
    primes = (2, 3, 5, 7)
    exp_ladder = (30, 50, 75, 100, 150, 200, 300)
    log_ladder = (30, 50, 75, 100)
    top_exp, top_log = 200, 75      # the top tier starts here

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def make_round(self) -> List[Op]:
        ops: List[Op] = []
        for p in self.primes:
            F = dv.Qp(p)
            for N in self.exp_ladder:
                ops.extend(self._round_trip(F, N) if N in self.log_ladder
                           else [self._exp(F, N)])
            ops.append(self._exp(F, 30, in_domain=False))
            ops.append(self._log_outside(F, 30))
        ops.append(self._log_non_unit(dv.Qp(self.rng.choice(self.primes)), 30))
        return ops

    def _argument(self, p: int, v: int) -> Fraction:
        return Fraction(p ** v * _unit(self.rng, p, p ** 6), _unit(self.rng, p, p ** 2))

    def _exp(self, F, N: int, in_domain: bool = True, cell: Optional[dict] = None) -> Op:
        p = F.q
        v = dv.e_min(p) if in_domain else dv.e_min(p) - 1
        a = self._argument(p, v)
        x = padic(F, a, N)

        def call():
            y = dv.exp_eval(x, N)
            if cell is not None:
                cell["z"] = y
            return y
        if not in_domain:
            return Op("exp", N, False, call, expect="DomainError", inputs=(p, a, N))
        return Op("exp", N, N >= self.top_exp, call,
                  _check_element(lambda k: orc.exp_mod(p, a, k), N), inputs=(p, a, N))

    def _round_trip(self, F, N: int) -> List[Op]:
        cell: dict = {}
        p = F.q

        def call():
            return dv.log_solve(cell["z"], N)

        def check(x) -> str:
            k = x.abs_precision
            z = cell["z"]
            if k > z.abs_precision or x.valuation_lower_bound < dv.e_min(p):
                return WRONG
            if orc.exp_mod(p, x.reduce_mod(k), k) != z.reduce_mod(k):
                return WRONG
            return SHORT if k < N else OK
        exp_op = self._exp(F, N, cell=cell)
        return [exp_op, Op("log", N, N >= self.top_log, call, check, inputs=exp_op.inputs)]

    def _log_outside(self, F, N: int) -> Op:
        p = F.q
        a = 1 + self._argument(p, dv.e_min(p) - 1)
        z = padic(F, a, N)
        return Op("log", N, False, lambda: dv.log_solve(z, N), expect="DomainError",
                  inputs=(p, a, N))

    def _log_non_unit(self, F, N: int) -> Op:
        p = F.q
        a = p * _unit(self.rng, p, p ** 2)
        z = padic(F, a, N)
        return Op("log", N, False, lambda: dv.log_solve(z, N), expect="DomainError",
                  inputs=(p, a, N))


# -- roots-mixed and roots-simple -------------------------------------

class RootsMixed:
    """enumerate_roots, hensel_solve and fixed_point_solve on polynomials
    with constructed roots over Q_p (p in {2,3,5,7}) and F_q((T))
    (q in {3,5,7}) at N in {16, 64, 256}; coefficients carry N + 4 digits,
    as the CLI gives them.  Simple roots, close pairs, X^2 - p^2 c and
    squares over Q_2 (v(f'(root)) > 0), plus the fixed inputs X^2 - 9
    over Q_3 and X^2 - 17 over Q_2.  The roots' residues are fixed, so the
    residue scan visits the same classes in every round; the seed picks
    the higher digits."""

    name = "roots-mixed"
    primes = (2, 3, 5, 7)
    laurent_qs = (3, 5, 7)
    tiers = (16, 64, 256)
    margin = 4          # digits the coefficients carry beyond N

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def make_round(self) -> List[Op]:
        ops: List[Op] = []
        for N in self.tiers:
            for p in self.primes:
                ops.extend(self._padic_ops(dv.Qp(p), N))
            for q in self.laurent_qs:
                ops.extend(self._laurent_ops(dv.laurent_field(q), N))
            ops.extend(self._fixed_inputs(N))
        return ops

    # padic -------------------------------------------------------------

    def _padic_ops(self, F, N: int) -> List[Op]:
        rng, p = self.rng, F.q
        top = N == self.tiers[-1]
        simple = [r + p * rng.randrange(p ** 4) for r in range(min(3, p))]
        close = [self._padic_pair(p, k) for k in (1, 2)]
        if p == 2:
            s = 2 * rng.randrange(2 ** 6) + 1
            square = [s, -s]
        else:
            s = _unit(rng, p, p ** 3)
            square = [p * s, -p * s]
        ops = [self._padic_enum(F, simple, N, top, default_target=True)]
        ops += [self._padic_enum(F, roots, N, top) for roots in (simple, close[0], square)]
        # the solvers get quadratics, so the distance of x0 from the root
        # alone fixes how many steps they take
        ops.append(self._padic_solve(F, "hensel", simple[:2], 1, N, top))
        ops.append(self._padic_solve(F, "hensel", close[1], 5, N, top))
        ops.append(self._padic_solve(F, "fixed_point", simple[1::-1], 2, N, top))
        return ops

    def _padic_pair(self, p: int, k: int) -> List[int]:
        """Two roots at distance exactly p^-k."""
        r = 1 + p * self.rng.randrange(p ** 3)
        return [r, r + p ** k * _unit(self.rng, p, p ** 2)]

    def _padic_poly(self, F, roots, W: int):
        return dv.polynomial(F, orc.rational_poly_from_roots(roots), W)

    def _padic_enum(self, F, roots, N: int, top: bool, default_target: bool = False) -> Op:
        f = self._padic_poly(F, roots, N + self.margin)
        p = F.q
        known = [lambda k, r=r: orc.residue(p, r, k) for r in roots]
        return _enum_op(f, known, N, N + self.margin, top, default_target,
                        (F.kind.value, p, tuple(map(str, roots)), N, default_target))

    def _padic_solve(self, F, kind: str, roots, dist: int, N: int, top: bool) -> Op:
        """Solve f = 0 from x0 at distance exactly p^-dist from roots[0]."""
        W, p = N + self.margin, F.q
        f = self._padic_poly(F, roots, W)
        r = roots[0]
        x0 = padic(F, r + p ** dist * _unit(self.rng, p, p ** 3), W)
        zero = dv.FieldElement.zero_to_precision(F, W)
        problem = dv.HenselProblem(f, x0, zero, 0, N)
        solve = dv.hensel_solve if kind == "hensel" else dv.fixed_point_solve
        return Op(kind + "_solve", N, top, lambda: solve(problem),
                  _check_root(lambda k: orc.residue(p, r, k), N),
                  inputs=(p, tuple(roots), x0.reduce_mod(W), N))

    def _fixed_inputs(self, N: int) -> List[Op]:
        top = N == self.tiers[-1]
        ops = [self._padic_enum(dv.Qp(3), [3, -3], N, top)]
        F2, W = dv.Qp(2), N + 4
        f = dv.polynomial(F2, [-17, 0, 1], W)
        known = [lambda k: orc.sqrt_mod_2(17, k), lambda k: -orc.sqrt_mod_2(17, k) % 2 ** k]
        ops.append(Op("enumerate_roots", N, top,
                      lambda: dv.enumerate_roots(f, 0, target_prec=N),
                      _check_roots(known, N), inputs=(2, "X^2 - 17", N)))
        return ops

    # laurent ----------------------------------------------------------

    def _laurent_root(self, q: int, const: Optional[int] = None) -> List[int]:
        rng = self.rng
        d = [rng.randrange(q) for _ in range(4)]
        if const is not None:
            d[0] = const
        return d

    def _laurent_ops(self, F, N: int) -> List[Op]:
        rng, q = self.rng, F.q
        top = N == self.tiers[-1]
        simple = [self._laurent_root(q, c) for c in range(3)]
        close = [self._laurent_pair(q, k) for k in (1, 2)]
        s = self._laurent_root(q, 1 + rng.randrange(q - 1))
        square = [[0] + s, [0] + [(-d) % q for d in s]]
        ops = [self._laurent_enum(F, simple, N, top, default_target=True)]
        ops += [self._laurent_enum(F, roots, N, top) for roots in (simple, close[0], square)]
        ops.append(self._laurent_solve(F, "hensel", simple[:2], 1, N, top))
        ops.append(self._laurent_solve(F, "hensel", close[1], 5, N, top))
        ops.append(self._laurent_solve(F, "fixed_point", simple[1::-1], 2, N, top))
        return ops

    def _laurent_pair(self, q: int, k: int) -> List[List[int]]:
        """Two roots at distance exactly q^-k."""
        r = self._laurent_root(q, 1)
        other = list(r) + [0] * 3
        other[k] = (other[k] + 1 + self.rng.randrange(q - 1)) % q
        return [r, other]

    def _laurent_poly(self, F, roots, W: int):
        coeffs = orc.laurent_poly_from_roots(roots, F.q)
        return TruncatedSeries(F, tuple(laurent(F, c, W) for c in coeffs))

    def _laurent_enum(self, F, roots, N: int, top: bool, default_target: bool = False) -> Op:
        f = self._laurent_poly(F, roots, N + self.margin)
        q = F.q
        known = [lambda k, r=r: orc.code(r, q, k) for r in roots]
        return _enum_op(f, known, N, N + self.margin, top, default_target,
                        (F.kind.value, q, tuple(map(str, roots)), N, default_target))

    def _laurent_solve(self, F, kind: str, roots, dist: int, N: int, top: bool) -> Op:
        """Solve f = 0 from x0 at distance exactly q^-dist from roots[0]."""
        W, q = N + self.margin, F.q
        f = self._laurent_poly(F, roots, W)
        r = roots[0]
        bump = [0] * dist + [1 + self.rng.randrange(q - 1), self.rng.randrange(q)]
        start = orc.poly_add(r, bump, q)
        x0 = laurent(F, start, W)
        zero = dv.FieldElement.zero_to_precision(F, W)
        problem = dv.HenselProblem(f, x0, zero, 0, N)
        solve = dv.hensel_solve if kind == "hensel" else dv.fixed_point_solve
        return Op(kind + "_solve", N, top, lambda: solve(problem),
                  _check_root(lambda k: orc.code(r, q, k), N),
                  inputs=(q, tuple(map(tuple, roots)), tuple(start), N))


class RootsSimple(RootsMixed):
    """The calls of roots-mixed on inputs that the library answers right:
    every root is simple (the roots differ modulo q, so v(f'(root)) = 0)
    and every answer is asked for at the coefficients' own precision N.
    A root certified below the working precision still claims the whole
    of it (ROADMAP item 2), so roots-mixed, which keeps those inputs,
    fails most of its operations; this workload measures the same layers
    on answers that can be timed as correct."""

    name = "roots-simple"
    margin = 0

    def make_round(self) -> List[Op]:
        ops: List[Op] = []
        for N in self.tiers:
            for p in self.primes:
                ops.extend(self._padic_ops(dv.Qp(p), N))
            for q in self.laurent_qs:
                ops.extend(self._laurent_ops(dv.laurent_field(q), N))
        return ops

    def _padic_ops(self, F, N: int) -> List[Op]:
        rng, p = self.rng, F.q
        top = N == self.tiers[-1]
        simple = [r + p * rng.randrange(p ** 4) for r in range(min(3, p))]
        pair = [r + p * rng.randrange(p ** 4) for r in (1, 0)]
        return [self._padic_enum(F, simple, N, top, default_target=True),
                self._padic_enum(F, pair, N, top, default_target=True),
                self._padic_solve(F, "hensel", simple[:2], 1, N, top),
                self._padic_solve(F, "hensel", pair, 3, N, top),
                self._padic_solve(F, "fixed_point", simple[1::-1], 2, N, top)]

    def _laurent_ops(self, F, N: int) -> List[Op]:
        top = N == self.tiers[-1]
        simple = [self._laurent_root(F.q, c) for c in range(3)]
        pair = [self._laurent_root(F.q, c) for c in (1, 0)]
        return [self._laurent_enum(F, simple, N, top, default_target=True),
                self._laurent_enum(F, pair, N, top, default_target=True),
                self._laurent_solve(F, "hensel", simple[:2], 1, N, top),
                self._laurent_solve(F, "hensel", pair, 3, N, top),
                self._laurent_solve(F, "fixed_point", simple[1::-1], 2, N, top)]


def _enum_op(f, known, N: int, W: int, top: bool, default_target: bool,
             inputs: tuple) -> Op:
    """enumerate_roots on f, either at target N or at the library's
    default target, the working precision W of f."""
    if default_target:
        call, want = (lambda: dv.enumerate_roots(f, 0)), W
    else:
        call, want = (lambda: dv.enumerate_roots(f, 0, target_prec=N)), N
    return Op("enumerate_roots", N, top, call, _check_roots(known, want), inputs=inputs)


# -- measure-balls ----------------------------------------------------

# per residue size: (largest radius exponent J, anchor radius exponent)
BALL_DEPTH = {2: (10, 4), 3: (6, 3), 5: (4, 2), 7: (4, 2)}
LOOSE = 8          # balls placed anywhere, nested or disjoint
SPREAD = 25        # a spread family of n balls has n // SPREAD anchors


def anchor_count(n: int) -> int:
    """Disjoint anchor balls that a nested family of n balls nests into."""
    return min(16, 6 + n // 200)


def ball_family(rng: random.Random, q: int, n: int, within: Optional[tuple] = None,
                anchors: Optional[int] = None):
    """n balls (code, radius exponent) in the unit ball: `anchors`
    disjoint anchors (default anchor_count(n)), LOOSE balls anywhere, the
    rest nested in anchors (some equal to one).  The anchors' radius
    exponent grows until there are enough residue classes for them, so a
    spread family (anchors growing with n) keeps many maximal balls.
    within=(c, j) confines everything to B(c, q^-j)."""
    J, ja = BALL_DEPTH[q]
    base, base_j = within if within else (0, 0)
    ja = max(ja, base_j + 1)
    if anchors is None:
        count = anchor_count(n)
    else:
        count = anchors
        while q ** (ja - base_j) < count:
            ja += 1
        J = max(J, ja + 2)
    span = q ** (ja - base_j)
    anchor_codes = [base + q ** base_j * t for t in rng.sample(range(span), min(count, span))]
    balls = [(a, ja) for a in anchor_codes]
    for _ in range(LOOSE):
        j = rng.randint(ja, J)
        balls.append((base + q ** base_j * rng.randrange(q ** (j - base_j)), j))
    while len(balls) < n:
        a = rng.choice(anchor_codes)
        j = rng.randint(ja, J)
        balls.append((a + q ** ja * rng.randrange(q ** (j - ja)), j))
    rng.shuffle(balls)
    return balls


class MeasureBalls:
    """haar_union_measure on families of 100-2000 low-precision balls
    over Q_p and F_q((T)), scale_family, image_measure over Q_p, and
    digit_set_analysis at depths up to 10.  Every field gets nested
    families of 100, 200 and 400 balls, which keep few maximal balls, and
    one large spread family from a ladder of sizes, whose n // SPREAD
    disjoint anchors make maximal_disjointify's scan of the kept balls
    grow as n^2.  The ladder makes the latency tail rise in steps instead
    of jumping.  Each round also asks for an image of a family that
    leaves its ball and for a digit set with a digit out of range, both
    to be refused.  A round has 45 operations, so that latency_p50_ms
    falls in the middle of the 200-ball unions and latency_p90_ms in the
    middle of the 1100-ball ones, not on the edge between two sizes."""

    name = "measure-balls"
    fields = (("padic", 2), ("padic", 3), ("padic", 5), ("padic", 7),
              ("laurent", 3), ("laurent", 5), ("laurent", 7))
    large = (700, 900, 1100, 1300, 1600, 1800, 2000)    # one per field
    top_size = 1500                                     # the top tier starts here
    # the image families are as large as the largest nested ones, so that
    # the ops below the median are the 100-ball unions and cheaper, and
    # latency_p50_ms falls in the middle of the 200-ball unions
    image_size = 400

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def _field(self, kind: str, q: int):
        return dv.Qp(q) if kind == "padic" else dv.laurent_field(q)

    def _ball(self, F, code: int, j: int):
        if F.kind is dv.FieldKind.PADIC:
            center = dv.FieldElement.from_rational(F, code, 1, j)
        else:
            center = laurent(F, digits_of(code, F.q, j), j)
        return dv.BallSpec.make(center, j)

    def make_round(self) -> List[Op]:
        ops: List[Op] = []
        for (kind, q), n in zip(self.fields, self.large):
            F = self._field(kind, q)
            for size in (100, 200, 400):
                ops.append(self._union(F, size))
            ops.append(self._union(F, n, anchors=n // SPREAD))
            ops.append(self._scale(F))
            if kind == "padic":
                ops.append(self._image(F))
                ops.append(self._digits(q))
        ops.append(self._image(self._field("padic", self.rng.choice((2, 3, 5, 7))),
                               outside=True))
        ops.append(self._digits_outside(self.rng.choice((2, 3, 5, 7))))
        return ops

    def _union(self, F, n: int, anchors: Optional[int] = None) -> Op:
        spec = ball_family(self.rng, F.q, n, anchors=anchors)
        balls = [self._ball(F, c, j) for c, j in spec]
        return Op("haar_union_measure", n, n >= self.top_size,
                  lambda: dv.haar_union_measure(balls),
                  lambda m: OK if m == orc.union_measure(F.q, spec) else WRONG,
                  inputs=(F.kind.value, F.q, tuple(spec)))

    def _scale(self, F) -> Op:
        rng, q = self.rng, F.q
        spec = ball_family(rng, q, 200)
        balls = [self._ball(F, c, j) for c, j in spec]
        v = rng.randrange(3)
        padic_field = F.kind is dv.FieldKind.PADIC
        if padic_field:
            u = _unit(rng, q, q ** 3)
            c = dv.FieldElement.from_rational(F, q ** v * u, 1, 16)
        else:
            u = 1 + rng.randrange(q - 1)
            c = dv.FieldElement.from_rational(F, u, 1, 16).shift(v)

        def check(result) -> str:
            if padic_field:
                expect = [((q ** v * u * code) % q ** (j + v), j + v) for code, j in spec]
            else:
                expect = [(orc.code([0] * v + [u * d % q for d in digits_of(code, q, j)],
                                    q, j + v), j + v) for code, j in spec]
            family, ratio = result
            got = [(b.center.reduce_mod(b.radius_exponent), b.radius_exponent)
                   for b in family]
            return OK if ratio == Fraction(1, q ** v) and got == expect else WRONG
        return Op("scale_family", 200, False, lambda: dv.scale_family(c, balls), check,
                  inputs=(F.kind.value, q, u, v, tuple(spec)))

    def _image(self, F, outside: bool = False) -> Op:
        """image_measure of a family inside B(c0, 1/p); with outside, a
        small family with one more ball in another residue class, which
        must be refused."""
        rng, p = self.rng, F.q
        c0 = rng.randrange(p)
        spec = ball_family(rng, p, 20 if outside else self.image_size, within=(c0, 1))
        if outside:
            spec.append(((c0 + 1 + rng.randrange(p - 1)) % p, 1))
        balls = [self._ball(F, c, j) for c, j in spec]
        e = rng.randrange(2)
        coeffs = [rng.randrange(p ** 3), p ** e * _unit(rng, p, p ** 2),
                  p ** (e + 1) * rng.randrange(1, p ** 2)]
        J = max(j for _, j in spec)
        f = dv.polynomial(F, coeffs, J + e + 4)
        ball = self._ball(F, c0, 1)
        if outside:
            return Op("image_measure", len(spec), False,
                      lambda: dv.image_measure(f, ball, balls), expect="DomainError",
                      inputs=(p, tuple(coeffs), c0, tuple(spec)))
        return Op("image_measure", self.image_size, False,
                  lambda: dv.image_measure(f, ball, balls),
                  lambda m: OK if m == orc.image_measure(p, coeffs, spec, e) else WRONG,
                  inputs=(p, tuple(coeffs), c0, tuple(spec)))

    def _digits_outside(self, p: int) -> Op:
        digit_set = [0, p + self.rng.randrange(p)]
        return Op("digit_set_analysis", 4, False,
                  lambda: dv.digit_set_analysis(p, digit_set, 4, Fraction(1)),
                  expect="DomainError", inputs=(p, tuple(digit_set), 4))

    def _digits(self, p: int) -> Op:
        rng = self.rng
        s = 2 if p == 2 else 2 + rng.randrange(2)
        digit_set = sorted(rng.sample(range(p), s))
        depth = 10 if s == 2 else 8 + rng.randrange(3)
        if rng.randrange(2):
            B = 2 + rng.randrange(p + 1)
            beta, parts = dv.DimensionValue(B, p), (1, 1, B)
        else:
            b = Fraction(1 + rng.randrange(3), 1 + rng.randrange(3))
            beta, parts = b, (b.numerator, b.denominator, p)

        def check(report) -> str:
            good = (report.ball_count == s ** depth
                    and report.content_estimate.compare_to_one()
                    == orc.content_sign(s, *parts)
                    and report.dimension.count_base == s
                    and report.dimension.scale_base == p)
            return OK if good else WRONG
        return Op("digit_set_analysis", depth, False,
                  lambda: dv.digit_set_analysis(p, digit_set, depth, beta), check,
                  inputs=(p, tuple(digit_set), depth, parts))


# -- cli-commands -----------------------------------------------------

def _poly_text(coeffs: Sequence[int]) -> str:
    """Series literal for an integer polynomial, highest degree first."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        body = str(abs(c)) + ("" if e == 0 else "*X" if e == 1 else f"*X^{e}")
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _elem_text(p: int, digits: Sequence[int], prec: int) -> str:
    terms = [str(d) if i == 0 else f"{d}*{p}" if i == 1 else f"{d}*{p}^{i}"
             for i, d in enumerate(digits) if d]
    return " + ".join(terms + [f"O({p}^{prec})"])


def _json_value(payload: dict, p: int) -> Fraction:
    """The rational value of a CLI element payload's digits."""
    v = payload["valuation"]
    if v is None:
        return Fraction(0)
    return sum((Fraction(d) * Fraction(p) ** (v + i)
                for i, d in enumerate(payload["digits"])), Fraction(0))


def element_check(p: int, want: Fraction, N: int):
    """Check for a CLI element payload against an exact rational."""
    def check(text: str) -> str:
        payload = json.loads(text)
        k = payload["abs_precision"]
        diff = _json_value(payload, p) - want
        if diff != 0 and orc.vp(p, diff) < k:
            return WRONG
        return SHORT if k < N else OK
    return check


class CliCommands:
    """Every README subcommand of `dvfield` at small N, one fresh
    `python -m dvfield.cli` process per command, plus two commands that
    must be refused (a DomainError and a parse error)."""

    name = "cli-commands"
    top_n = 16

    def __init__(self, seed: int, root: str, in_process: bool = False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.root = root
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run_cli(self, argv: List[str]) -> str:
        """stdout of one command; raises CliRefusal or CliCrash."""
        if self.in_process:
            import dvfield.cli
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = dvfield.cli.run(argv)
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "dvfield.cli"] + argv,
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=120)
            rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if rc == 0:
            return stdout
        if rc == 2 and ":" in stderr and "Traceback" not in stderr:
            raise CliRefusal(stderr.split(":", 1)[0].strip(), stderr.strip())
        if rc == 1 and stderr.startswith("parse error"):
            raise CliRefusal("ParseError", stderr.strip())
        raise CliCrash(stderr.strip()[-300:])

    def _op(self, kind: str, argv: List[str], check=None, N: int = 0,
            expect: str = "value") -> Op:
        return Op(kind, N, N == self.top_n, lambda: self.run_cli(argv), check, expect,
                  tuple(argv))

    def make_round(self) -> List[Op]:
        rng = self.rng
        P = lambda: rng.choice((2, 3, 5, 7))  # noqa: E731
        ops = [self._val(P()), self._factval(P()), self._elem(P()), self._elem_op(P()),
               self._hensel(P()), self._roots(P()), self._strassmann(P()),
               self._exp(P()), self._log(P()), self._union(P()), self._scale(P()),
               self._image(P()), self._alpha(P()), self._digits(P()),
               self._exp_outside(P()), self._bad_digit(P())]
        return ops

    def _rational(self, p: int) -> Fraction:
        rng = self.rng
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10 ** 4) * p ** rng.randrange(3),
                        _unit(rng, p, 10 ** 3) * p ** rng.randrange(2))

    def _val(self, p: int) -> Op:
        x = self._rational(p)
        return self._op("val", ["val", "-p", str(p), "--", str(x)],
                        lambda out: OK if out.strip() == str(orc.vp(p, x)) else WRONG)

    def _factval(self, p: int) -> Op:
        j = self.rng.randrange(1, 2000)
        return self._op("factval", ["factval", "-p", str(p), str(j)],
                        lambda out: OK if out.strip() == str(orc.legendre(p, j)) else WRONG)

    def _elem(self, p: int) -> Op:
        x = self._rational(p)
        return self._op("elem", ["elem", "-p", str(p), "-N", "8", "--json", "--", str(x)],
                        element_check(p, x, 8), 8)

    def _elem_op(self, p: int) -> Op:
        a, b = self._rational(p), self._rational(p)
        op = self.rng.choice(("add", "sub", "mul", "div"))
        exact = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
                 "div": operator.truediv}[op]
        # the answer's precision follows the operands' precision; only the
        # agreement at the claimed precision is checked
        return self._op("elem", ["elem", "-p", str(p), "-N", "16", "--json", "--",
                                 str(a), op, str(b)],
                        lambda out: element_check(p, exact(a, b), 0)(out), 16)

    def _simple_roots(self, p: int, n: int) -> List[int]:
        rng = self.rng
        return [r + p * rng.randrange(p ** 3) for r in rng.sample(range(p), min(n, p))]

    def _int_poly(self, roots) -> List[int]:
        return [int(c) for c in orc.rational_poly_from_roots(roots)]

    def _hensel(self, p: int) -> Op:
        roots = self._simple_roots(p, 2)
        x0 = roots[0] + p * self.rng.randrange(p ** 2)
        argv = ["hensel", "-p", str(p), "-N", "16", "--json",
                "--f", _poly_text(self._int_poly(roots)), "--x0", str(x0), "--z", "0"]

        def check(out: str) -> str:
            return element_check(p, Fraction(roots[0]), 16)(json.dumps(json.loads(out)["root"]))
        return self._op("hensel", argv, check, 16)

    def _roots(self, p: int) -> Op:
        roots = self._simple_roots(p, 3)
        argv = ["roots", "-p", str(p), "-N", "16", "--json",
                "--f", _poly_text(self._int_poly(roots))]
        known = [lambda k, r=r: orc.residue(p, r, k) for r in roots]

        def check(out: str) -> str:
            found = []
            for e in json.loads(out)["roots"]:
                x = _json_value(e, p)
                k = e["abs_precision"]
                found.append((orc.residue(p, x, k), k))
            if not orc.match_roots(found, known):
                return WRONG
            return SHORT if any(k < 16 for _, k in found) else OK
        return self._op("roots", argv, check, 16)

    def _strassmann(self, p: int) -> Op:
        rng = self.rng
        coeffs = [rng.choice((-1, 1)) * _unit(rng, p, 50) * p ** rng.randrange(4)
                  for _ in range(2 + rng.randrange(4))]
        m = rng.randrange(2)
        return self._op("strassmann", ["strassmann", "-p", str(p), "-N", "8", "--m", str(m),
                                       "--f", _poly_text(coeffs)],
                        lambda out: OK if out.strip() == str(orc.strassmann_index(p, coeffs, m))
                        else WRONG, 8)

    def _domain_digits(self, p: int, K: int) -> List[int]:
        rng = self.rng
        d = [0] * dv.e_min(p) + [rng.randrange(p) for _ in range(K - dv.e_min(p))]
        d[dv.e_min(p)] = 1 + rng.randrange(p - 1)
        return d

    def _exp(self, p: int) -> Op:
        d = self._domain_digits(p, 18)
        x = sum(c * p ** i for i, c in enumerate(d))
        argv = ["exp", "-p", str(p), "-N", "16", "--json", _elem_text(p, d, 18)]

        def check(out: str) -> str:
            e = json.loads(out)
            k = e["abs_precision"]
            got = orc.residue(p, _json_value(e, p), k)
            if got != orc.exp_mod(p, x, k):
                return WRONG
            return SHORT if k < 16 else OK
        return self._op("exp", argv, check, 16)

    def _log(self, p: int) -> Op:
        d = self._domain_digits(p, 18)
        d[0] = 1
        z = sum(c * p ** i for i, c in enumerate(d))
        argv = ["log", "-p", str(p), "-N", "16", "--json", _elem_text(p, d, 18)]

        def check(out: str) -> str:
            e = json.loads(out)
            k = e["abs_precision"]
            x = _json_value(e, p)
            if x != 0 and orc.vp(p, x) < dv.e_min(p):
                return WRONG
            if orc.exp_mod(p, x, k) != z % p ** k:
                return WRONG
            return SHORT if k < 16 else OK
        return self._op("log", argv, check, 16)

    def _ball_args(self, p: int, n: int, within=None):
        spec = ball_family(self.rng, p, n, within)
        return spec, [f"{c}@{j}" for c, j in spec]

    def _union(self, p: int) -> Op:
        spec, args = self._ball_args(p, 100)
        return self._op("measure", ["measure", "-p", str(p), "union"] + args,
                        lambda out: OK if Fraction(out.strip()) == orc.union_measure(p, spec)
                        else WRONG)

    def _scale(self, p: int) -> Op:
        spec, args = self._ball_args(p, 100)
        v = self.rng.randrange(3)
        c = p ** v * _unit(self.rng, p, p ** 2)
        return self._op("measure", ["measure", "-p", str(p), "--c", str(c), "scale"] + args,
                        lambda out: OK if Fraction(out.strip()) == Fraction(1, p ** v) else WRONG)

    def _image(self, p: int) -> Op:
        rng = self.rng
        c0 = rng.randrange(p)
        spec, args = self._ball_args(p, 100, within=(c0, 1))
        e = rng.randrange(2)
        coeffs = [rng.randrange(p ** 3), p ** e * _unit(rng, p, p ** 2),
                  p ** (e + 1) * rng.randrange(1, p ** 2)]
        argv = ["measure", "-p", str(p), "-N", "16", "--f", _poly_text(coeffs),
                "--ball", f"{c0}@1", "image"] + args
        return self._op("measure", argv,
                        lambda out: OK if Fraction(out.strip())
                        == orc.image_measure(p, coeffs, spec, e) else WRONG)

    def _alpha(self, p: int) -> Op:
        a = self.rng.randrange(1, 6)
        return self._op("dim", ["dim", "-p", str(p), "alpha", "--snowflake", str(a)],
                        lambda out: OK if Fraction(out.strip()) == Fraction(1, a) else WRONG)

    def _digits_outside(self, p: int) -> Op:
        digit_set = [0, p + self.rng.randrange(p)]
        return Op("digit_set_analysis", 4, False,
                  lambda: dv.digit_set_analysis(p, digit_set, 4, Fraction(1)),
                  expect="DomainError", inputs=(p, tuple(digit_set), 4))

    def _digits(self, p: int) -> Op:
        rng = self.rng
        s = 2 if p == 2 else 2 + rng.randrange(2)
        digit_set = sorted(rng.sample(range(p), s))
        depth = 4 + rng.randrange(5)
        B = 2 + rng.randrange(p + 1)
        argv = ["dim", "-p", str(p), "digits", "--digits", ",".join(map(str, digit_set)),
                "--depth", str(depth), "--beta-log", str(B)]

        def check(out: str) -> str:
            sign = orc.content_sign(s, 1, 1, B)
            return OK if out.startswith(f"balls={s ** depth} ") and f"(vs 1: {sign:+d})" in out \
                else WRONG
        return self._op("dim", argv, check)

    def _exp_outside(self, p: int) -> Op:
        d = self._domain_digits(p, 10)
        d[dv.e_min(p) - 1] = 1 + self.rng.randrange(p - 1)
        return self._op("exp", ["exp", "-p", str(p), "-N", "8", _elem_text(p, d, 10)],
                        N=8, expect="DomainError")

    def _bad_digit(self, p: int) -> Op:
        d = p + self.rng.randrange(10)
        return self._op("elem", ["elem", "-p", str(p), f"1 + {d}*{p} + O({p}^4)"],
                        expect="ParseError")


def make_workload(name: str, seed: int, root: str, in_process: bool = False):
    if name == CliCommands.name:
        return CliCommands(seed, root, in_process)
    for cls in (PadicExpLog, RootsSimple, RootsMixed, MeasureBalls):
        if cls.name == name:
            return cls(seed)
    raise KeyError(name)


WORKLOADS = (PadicExpLog.name, RootsSimple.name, RootsMixed.name, MeasureBalls.name,
             CliCommands.name)
