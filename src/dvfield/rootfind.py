"""Certified solving of f(x) = z on closed balls.

One solve loop, x <- x + a^(-1) (z - f(x)), with two update rules:
Newton (Hensel) refreshes a = f'(x) at every step, the fixed-point map
freezes a = f'(x0).  Around it: hypothesis checks on integer
valuations, Strassmann zero bounds, and a desk-scale exhaustive root
enumerator used to verify both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import (
    AllCoefficientsIndistinguishableFromZero,
    ContractionFails,
    DerivativeIndistinguishableFromZero,
    DomainError,
    HypothesesFail,
    PrecisionExhausted,
    TailInconclusive,
    UndecidedMultipleRoot,
)
from .localfield import FieldElement, as_exact as _as_exact
from .series import TruncatedSeries
from .valuation import Valuation


@dataclass(frozen=True)
class HenselProblem:
    f: TruncatedSeries
    x0: FieldElement
    z: FieldElement
    m: int
    target_prec: int


@dataclass(frozen=True)
class HypothesisReport:
    h_close: bool        # |z - f(x0)| <= |f'(x0)| * q^(-m)
    h_quadratic: bool    # M2 * |z - f(x0)| < |f'(x0)|^2
    h_single: bool       # M1' * |z - f(x0)| < |f'(x0)|^2

    @property
    def sufficient(self) -> bool:
        return (self.h_close and self.h_quadratic) or self.h_single


@dataclass(frozen=True)
class RootCertificate:
    root: FieldElement
    residual_prec: int
    uniqueness_exponent: int
    b_trace: Tuple[Valuation, ...]      # v(b_l), INFINITY when M2 = 0
    derivative_valuation: int


@dataclass(frozen=True)
class StrassmannReport:
    bound_N: int


@dataclass(frozen=True)
class _Series:
    """f with its f' and e_M1, e_M2 on the domain ball, once per series."""
    f: TruncatedSeries
    fprime: TruncatedSeries
    e_m1: Valuation
    e_m2: Valuation


def _series(f: TruncatedSeries, fprime: TruncatedSeries, m: int) -> _Series:
    return _Series(f, fprime, f.sup_exponent(m, 1), f.sup_exponent(m, 2))


@dataclass(frozen=True)
class _ProblemState:
    fprime: TruncatedSeries
    fp0: FieldElement        # f'(x0)
    d0: FieldElement         # z - f(x0)
    prec: int
    e_m2: Valuation
    e_m1: Valuation


def _state(s: _Series, z: FieldElement, fx: FieldElement, fp: FieldElement,
           prec: int) -> _ProblemState:
    """The solve's state from f(x0) and f'(x0), both evaluated at prec."""
    d = z.truncate(min(z.abs_precision, fx.abs_precision)) - fx
    return _ProblemState(s.fprime, fp, d, prec, s.e_m2, s.e_m1)


def _problem_state(problem: HenselProblem) -> _ProblemState:
    f, x0, z = problem.f, problem.x0, problem.z
    if x0.valuation_lower_bound < problem.m:
        raise DomainError("x0 lies outside the domain ball")
    prec = min(f.working_precision, x0.abs_precision, z.abs_precision)
    fprime = f.derivative()
    fp = _eval_at_least(fprime, x0, prec, 1)
    if fp.is_zero_to_precision:
        raise DerivativeIndistinguishableFromZero(
            "f'(x0) indistinguishable from zero at working precision")
    # a series that is its own derivative (E' = E) is evaluated once
    fx = fp if fprime is f else _eval_at_least(f, x0, prec, 1)
    return _state(_series(f, fprime, problem.m), z, fx, fp, prec)


def _eval_at_least(f: TruncatedSeries, x: FieldElement, prec: int,
                   floor: int) -> FieldElement:
    """f(x) at the precision eval certifies, capped at prec and at x's
    own precision; PrecisionExhausted when that is below floor."""
    t = min(prec, x.abs_precision)
    if t < floor:
        raise PrecisionExhausted(
            f"iterate precision {t} dropped below target {floor}")
    fx = f.eval(x, t)
    if fx.abs_precision < floor:
        raise PrecisionExhausted(
            f"cannot certify the value even modulo q^{floor}")
    return fx


def _require_target(problem: HenselProblem, state: _ProblemState) -> None:
    """The residual must reach target + max(e_fp, 0) for the root to be
    proven to the target: PrecisionExhausted when that is past the
    working precision or past the digits of z - f(x0)."""
    e_fp = state.fp0.valuation
    goal = problem.target_prec + max(e_fp, 0)
    if goal > state.prec:
        less = f" less v(f'(x0)) = {e_fp}" if e_fp > 0 else ""
        raise PrecisionExhausted(
            f"target precision {problem.target_prec} exceeds working "
            f"precision {state.prec}{less}")
    if state.d0.abs_precision < goal:
        raise PrecisionExhausted(
            f"cannot certify the value even modulo q^{goal}")


def _hypotheses(problem: HenselProblem, state: _ProblemState,
                r: int) -> HypothesisReport:
    """The hypotheses at x0, h_close on the ball of radius q^(-r) about it:
    the domain ball (r = m) for the solvers, a class (r = level >= m)."""
    e_fp = state.fp0.valuation
    e_d = state.d0.valuation_lower_bound
    return HypothesisReport(
        h_close=e_d >= e_fp + r,
        h_quadratic=state.e_m2 + e_d > 2 * e_fp,
        # M1' = max_{j>=1} |a_j| q^(-m(j-2)), one radius factor looser than M1
        h_single=state.e_m1 - problem.m + e_d > 2 * e_fp,
    )


def check_hypotheses(problem: HenselProblem) -> HypothesisReport:
    return _hypotheses(problem, _problem_state(problem), problem.m)


def _solve(problem: HenselProblem, state: _ProblemState,
           newton: bool) -> RootCertificate:
    """Iterate x <- x + a^(-1) (z - f(x)) from x0, with a = f'(x)
    (Newton) or a = f'(x0) (the frozen-slope map), until the residual
    vanishes modulo q^(target + max(e_fp, 0)); certify |f'(root)| =
    |f'(x0)| and return the root to the residual_prec - e_fp digits that
    |x - root| = |z - f(x)| / |f'(x)| proves.

    Every iterate is an exact point, padded with zero digits to x0's
    precision, so only the residual bounds how far it is from the root
    and no iterate drops the digits x0 carries past the working
    precision.

    A Newton step from a residual of valuation w certifies the next
    residual to valuation B(w) = 2w + e_m2 - 2e_fp, so it needs that
    residual only modulo q^(B(w) + 1) and f'(x) only to the residual's
    relative precision: step i evaluates at about 2^i digits.  The plan
    follows the measured valuation: a residual whose digits cannot carry
    a step from it is evaluated again at the digits it needs, and one
    that is zero to the plan, or certified below it, at the working
    precision.  A step whose bound reaches the goal, and every step of
    the frozen-slope map, runs at the working precision.

    The first step reuses f(x0) and f'(x0) from the problem state."""
    f, z, prec = problem.f, problem.z, state.prec
    e_fp = state.fp0.valuation
    goal = problem.target_prec + max(e_fp, 0)

    def bound(w: Valuation) -> Valuation:
        """B(w), the certified valuation of the residual after a Newton
        step from one of valuation w."""
        return state.e_m2 + w + w - 2 * e_fp

    def carry(w: Valuation) -> int:
        """Digits of a residual of valuation w that carry a step: all of
        them for a step that can reach the goal."""
        b = bound(w) + 1
        return prec if not newton or b >= goal else min(prec, b)

    def residual(x: FieldElement, t: int) -> FieldElement:
        """z - f(x) modulo q^t; refused at the working precision when
        eval certifies less than the goal there."""
        fx = _eval_at_least(f, x, prec, goal) if t == prec else f.eval(x, t)
        return z.truncate(min(z.abs_precision, fx.abs_precision)) - fx

    def slope(x: FieldElement, r: FieldElement) -> FieldElement:
        """f'(x), on the schedule to the relative precision of r."""
        t = min(prec, r.abs_precision - r.valuation + e_fp)
        fpx = state.fprime.eval(x, t)
        if not fpx.is_zero_to_precision and fpx.abs_precision == t:
            return fpx
        fpx = _eval_at_least(state.fprime, x, prec, 1)
        if fpx.is_zero_to_precision:
            raise DerivativeIndistinguishableFromZero(
                "derivative lost during iteration")
        return fpx

    x, r = problem.x0, state.d0
    inv0 = state.fp0.inverse()
    trace: List[Valuation] = []
    while r.valuation_lower_bound < goal:
        w = r.valuation
        trace.append(state.e_m2 + w - 2 * e_fp)
        a = inv0 if x is problem.x0 or not newton else slope(x, r).inverse()
        x = _as_exact(x + a * r, problem.x0.abs_precision)
        t = carry(bound(w))
        r = residual(x, t)
        if t < prec:
            if r.abs_precision < t or r.is_zero_to_precision:
                t = prec
                r = residual(x, t)
            elif r.valuation < goal and carry(r.valuation) > t:
                t = carry(r.valuation)
                r = residual(x, t)
        if len(trace) > 4 * goal + 8:
            raise PrecisionExhausted("iteration failed to converge")

    # only the valuation of f'(root) is read
    fpr = _eval_at_least(state.fprime, x, max(e_fp + 1, 1), e_fp + 1)
    if fpr.is_zero_to_precision or fpr.valuation != e_fp:
        raise PrecisionExhausted("derivative magnitude not preserved at the root")
    proven = r.valuation_lower_bound - e_fp
    return RootCertificate(
        root=x.truncate(min(x.abs_precision, proven)),
        residual_prec=r.valuation_lower_bound,
        uniqueness_exponent=state.d0.valuation_lower_bound - e_fp,
        b_trace=tuple(trace),
        derivative_valuation=e_fp,
    )


def hensel_solve(problem: HenselProblem) -> RootCertificate:
    """Iterate x <- x + f'(x)^(-1) (z - f(x)) until the residual proves
    the root modulo q^target_prec; quadratic convergence certified by the
    b trace.  One pass from x0, on the precision schedule whatever
    v(f'(x0)) is."""
    state = _problem_state(problem)
    report = _hypotheses(problem, state, problem.m)
    if not report.sufficient:
        raise HypothesesFail(
            f"h_close={report.h_close} h_quadratic={report.h_quadratic} "
            f"h_single={report.h_single}")
    _require_target(problem, state)
    return _solve(problem, state, newton=True)


def fixed_point_solve(problem: HenselProblem) -> RootCertificate:
    """Same contract as hensel_solve via the contraction h(x) = x +
    a^(-1) (z - f(x)) with a = f'(x0) frozen; requires t * M2 < |a|
    where t = |a|^(-1) |z - f(x0)|."""
    state = _problem_state(problem)
    _require_target(problem, state)
    if not _hypotheses(problem, state, problem.m).h_quadratic:
        raise ContractionFails(
            "t * M2 >= |f'(x0)|: the auxiliary map is not a contraction")
    return _solve(problem, state, newton=False)


def strassmann_bound(f: TruncatedSeries, m: int, from_index: int = 0) -> StrassmannReport:
    """N = the largest index attaining min_j (v(a_j) + m j) over j >=
    from_index, for from_index >= 0.  The series has at most N zeros in
    the closed ball of radius q^(-m); computed from from_index = 1 the
    same N bounds the solution count of f(x) = z for every z."""
    if from_index < 0:
        raise ValueError("from_index must be nonnegative")
    f.require_radius(m)
    best: Optional[int] = None
    attaining = -1
    undetermined = []
    for j in range(from_index, f.stored_len):
        c = f.coeffs[j]
        if c.is_zero_to_precision:
            undetermined.append(c.abs_precision + m * j)
            continue
        e = c.valuation + m * j
        if best is None or e <= best:
            best = e
            attaining = j
    if best is None:
        raise AllCoefficientsIndistinguishableFromZero(
            "no coefficient distinguishable from zero at working precision")
    for lb in undetermined:
        if lb <= best:
            raise TailInconclusive(
                "an undetermined coefficient could attain the maximum")
    if f.tail is not None:
        # j0 >= stored_len, so the tail alone bounds the exponent there
        j0 = max(f.stored_len, f.tail.start, from_index)
        if f.sup_exponent(m, j0) + m * j0 <= best:
            raise TailInconclusive("tail bound does not dominate strictly")
    return StrassmannReport(bound_N=attaining)


def enumerate_roots(f: TruncatedSeries, m: int, scan_depth: int = 4,
                    target_prec: Optional[int] = None) -> List[RootCertificate]:
    """All roots of f in the closed ball of radius q^(-m), each to at
    least target_prec digits, found by scanning residue classes to
    scan_depth, lifting every class where the hypotheses hold, and
    deflating found roots out before rescanning.

    Raises UndecidedMultipleRoot when a class reaches scan_depth with
    f and f' both indistinguishable from zero there.
    """
    if scan_depth < 0:
        raise ValueError("scan_depth must be nonnegative")
    f.require_radius(m)
    if target_prec is None:
        target_prec = f.working_precision
    found: List[Tuple[TruncatedSeries, RootCertificate]] = []
    zero = FieldElement.zero_to_precision(f.descriptor, f.working_precision)
    if strassmann_bound(f, m).bound_N > 0:
        _scan_class(_series(f, f.derivative(), m), m, zero, m, m + scan_depth,
                    target_prec, found)

    certs: List[RootCertificate] = []
    for g, cert in found:
        # one root found twice agrees to the digits both certificates prove
        if any(cert.root.agrees_with(c.root, min(cert.root.abs_precision,
                                                  c.root.abs_precision))
               for c in certs):
            continue
        if g is not f:
            # a certificate on a deflated series states |g'(root)|, not |f'(root)|
            start = _as_exact(cert.root, f.working_precision)
            cert = hensel_solve(HenselProblem(f, start, zero, m, target_prec))
        certs.append(cert)
    certs.sort(key=lambda c: (c.root.valuation_lower_bound, c.root.digits))
    return certs


def _scan_class(s: _Series, m: int, center: FieldElement, level: int,
                max_level: int, target_prec: int,
                out: List[Tuple[TruncatedSeries, RootCertificate]]) -> None:
    """Depth-first scan of the class {x = center mod q^level, v(x) >= m},
    the closed ball of radius q^(-level) about center, collecting each
    root's certificate with the series it was solved on.  Where the
    hypotheses hold on the class (`_hypotheses` at r = level), Newton
    starts from the f(center) and f'(center) the visit evaluated."""
    f = s.f
    prec = min(f.working_precision, center.abs_precision)
    w = _eval_at_least(f, center, prec, 1)
    # any root x in the class has |f(center)| = |f(center) - f(x)| <=
    # M1 * q^(-level), so a smaller determined residual rules the class out
    if not w.is_zero_to_precision and w.valuation < s.e_m1 + (level - m):
        return
    fp = _eval_at_least(s.fprime, center, prec, 1)
    if not fp.is_zero_to_precision:
        zero = FieldElement.zero_to_precision(f.descriptor, f.working_precision)
        # to every digit f(center) carries: the deflation below needs
        # the root past the target, or g0 keeps a trace of it
        t = max(target_prec, w.abs_precision - max(fp.valuation, 0))
        problem = HenselProblem(f, center, zero, m, t)
        state = _state(s, zero, w, fp, prec)
        report = _hypotheses(problem, state, level)
        if report.h_close and report.h_quadratic:
            _require_target(problem, state)
            cert = _solve(problem, state, newton=True)
            out.append((f, cert))
            # a class can hold two roots or more: strip this one and rescan
            g0 = f.deflate(_as_exact(cert.root, f.working_precision), m)
            try:
                strassmann_bound(g0, m)
            except AllCoefficientsIndistinguishableFromZero:
                return
            _scan_class(_series(g0, g0.derivative(), m), m, center, level,
                        max_level, target_prec, out)
            return
    if level >= max_level:
        raise UndecidedMultipleRoot(
            f"class at depth {level - m} has residual valuation >= "
            f"{w.valuation_lower_bound} with no usable derivative")
    for d in range(f.descriptor.q):
        # d * uniformizer^level, exact, at the center's precision
        bump = FieldElement.from_rational(
            f.descriptor, d, 1, center.abs_precision - level).shift(level)
        _scan_class(s, m, center + bump, level + 1, max_level, target_prec, out)
