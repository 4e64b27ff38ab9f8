"""Certified solving of f(x) = z on closed balls.

One solve loop, x <- x + a^(-1) (z - f(x)), with two update rules:
Newton (Hensel) refreshes a = f'(x) at every step, the fixed-point map
freezes a = f'(x0).  Around it: hypothesis checks in exact magnitude
arithmetic, Strassmann zero bounds, and a desk-scale exhaustive root
enumerator used to verify both.
"""

from __future__ import annotations

import functools
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
from .localfield import FieldElement
from .series import TruncatedSeries
from .valuation import Magnitude, Valuation, is_infinite


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
    b_trace: Tuple[Magnitude, ...]
    derivative_magnitude: Magnitude


@dataclass(frozen=True)
class StrassmannReport:
    bound_N: int
    attaining_index: int


@dataclass(frozen=True)
class _ProblemState:
    fprime: TruncatedSeries
    fp0: FieldElement        # f'(x0)
    d0: FieldElement         # z - f(x0)
    prec: int
    e_m2: Valuation


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
    fx = _eval_at_least(f, x0, prec, 1)
    d = z.truncate(min(z.abs_precision, fx.abs_precision)) - fx
    return _ProblemState(fprime, fp, d, prec, f.sup_exponent(problem.m, 2))


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
    if problem.target_prec > state.prec:
        raise PrecisionExhausted(
            f"target precision {problem.target_prec} exceeds working "
            f"precision {state.prec}")


def _hypotheses(problem: HenselProblem, state: _ProblemState) -> HypothesisReport:
    e_fp = state.fp0.valuation
    e_d = state.d0.valuation_lower_bound
    m = problem.m
    # M1' = max_{j>=1} |a_j| q^(-m(j-2)), one radius factor looser than M1
    e_m1p = problem.f.sup_exponent(m, 1) - m
    return HypothesisReport(
        h_close=e_d >= e_fp + m,
        h_quadratic=state.e_m2 + e_d > 2 * e_fp,
        h_single=e_m1p + e_d > 2 * e_fp,
    )


def check_hypotheses(problem: HenselProblem) -> HypothesisReport:
    return _hypotheses(problem, _problem_state(problem))


def _as_exact(x: FieldElement, prec: int) -> FieldElement:
    """x taken as an exact point known modulo q^prec: its unit padded
    with zero digits (or truncated)."""
    if prec <= x.abs_precision:
        return x.truncate(prec)
    if x.is_zero_to_precision:
        return FieldElement.zero_to_precision(x.descriptor, prec)
    return FieldElement(x.descriptor, x.valuation, x.unit, prec)


def _solve(problem: HenselProblem, state: _ProblemState, newton: bool,
           schedule: bool = True) -> RootCertificate:
    """Iterate x <- x + a^(-1) (z - f(x)) from x0, with a = f'(x)
    (Newton) or a = f'(x0) (the frozen-slope map), until the residual
    vanishes modulo q^target_prec, then certify |f'(root)| = |f'(x0)|.

    Newton runs on a precision schedule.  A step from a residual of
    valuation w certifies the next residual to valuation
    B(w) = 2w + e_m2 - 2e_fp, so it needs the residual only modulo
    q^(B(w) + 1) and f'(x) only to that residual's relative precision:
    step i evaluates at about 2^i digits.  Three invariants keep every
    answer the full-precision loop's:

    - The precision is planned from the measured valuation.  A residual
      whose digits cannot carry a step from its measured valuation is
      evaluated again at the digits it needs; one that is zero to the
      planned precision, or that eval certifies below it, is evaluated
      at the working precision.  So b_(l+1) <= b_l^2 holds.
    - A step whose bound reaches the target runs at the working
      precision.  Every step does when v(f'(x0)) > 0, and for the
      frozen-slope map, which certifies no bound.
    - An iterate computed below the working precision is an exact point
      (its unit padded with zero digits) at the precision the
      full-precision step would give it, never above the previous
      iterate's.  Its digits above that differ from the full-precision
      loop's, so the solve restarts without the schedule where they
      could show: when a later step at the working precision cuts the
      iterate (eval certifies fewer digits there than at x0), when the
      loop ends right after a step below the working precision (the
      full-precision loop may take one more step), and when the root
      claims digits that its residual does not certify.

    The first step reuses f(x0) and f'(x0) from the problem state."""
    f, z, target, prec = problem.f, problem.z, problem.target_prec, state.prec
    q = f.descriptor.q
    e_fp = state.fp0.valuation
    scheduled = schedule and newton and e_fp <= 0

    def bound(w: Valuation) -> Valuation:
        """B(w), the certified valuation of the residual after a Newton
        step from one of valuation w."""
        return state.e_m2 + w + w - 2 * e_fp

    def carry(w: Valuation) -> int:
        """Digits of a residual of valuation w that carry a step: all of
        them for a step that can reach the target."""
        b = bound(w) + 1
        return prec if not scheduled or b >= target else min(prec, b)

    def residual(x: FieldElement, t: int) -> FieldElement:
        """z - f(x) modulo q^t; with the full-precision loop's checks at
        the working precision and when x is known to fewer digits than
        the target."""
        if t == prec or x.abs_precision < target:
            fx = _eval_at_least(f, x, prec, target)
        else:
            fx = f.eval(x, t)
        return z.truncate(min(z.abs_precision, fx.abs_precision)) - fx

    def slope(x: FieldElement, r: FieldElement) -> FieldElement:
        """f'(x), on the schedule to the relative precision of r."""
        if scheduled:
            t = min(prec, r.abs_precision - r.valuation + e_fp)
            fpx = state.fprime.eval(x, t)
            if not fpx.is_zero_to_precision and fpx.abs_precision == t:
                return fpx
        fpx = _eval_at_least(state.fprime, x, prec, 1)
        if fpx.is_zero_to_precision:
            raise DerivativeIndistinguishableFromZero(
                "derivative lost during iteration")
        return fpx

    x, r, t = problem.x0, state.d0, prec
    if r.abs_precision < target:
        raise PrecisionExhausted(
            f"cannot certify the value even modulo q^{target}")
    inv0 = state.fp0.inverse()
    lifted = reduced = False
    trace: List[Magnitude] = []
    while r.valuation_lower_bound < target:
        w = r.valuation
        trace.append(Magnitude(q, state.e_m2 + w - 2 * e_fp))
        a = inv0 if x is problem.x0 or not newton else slope(x, r).inverse()
        step = x + a * r
        reduced = t < prec
        if reduced:
            # the precision a step from r and f'(x) known to min(prec,
            # x.abs_precision) digits gives
            k = min(prec, x.abs_precision)
            step = _as_exact(step, min(x.abs_precision, w - 2 * e_fp + k, k - e_fp))
            lifted = True
        elif lifted and step.abs_precision < x.abs_precision:
            return _solve(problem, state, newton, schedule=False)
        x = step
        t = carry(bound(w))
        r = residual(x, t)
        if t < prec:
            if r.abs_precision < t or r.is_zero_to_precision:
                t = prec
                r = residual(x, t)
            elif r.valuation < target and carry(r.valuation) > t:
                t = carry(r.valuation)
                r = residual(x, t)
        if len(trace) > 4 * target + 8:
            raise PrecisionExhausted("iteration failed to converge")
    if reduced or (lifted and r.valuation_lower_bound - e_fp < x.abs_precision):
        # converged faster than planned, or a root reached through lifted
        # iterates that claims digits its residual does not certify
        return _solve(problem, state, newton, schedule=False)

    # only the valuation of f'(root) is read
    fpr = _eval_at_least(state.fprime, x, max(e_fp + 1, 1), e_fp + 1)
    if fpr.is_zero_to_precision or fpr.valuation != e_fp:
        raise PrecisionExhausted("derivative magnitude not preserved at the root")
    return RootCertificate(
        root=x,
        residual_prec=r.valuation_lower_bound,
        uniqueness_exponent=state.d0.valuation_lower_bound - e_fp,
        b_trace=tuple(trace),
        derivative_magnitude=fpr.magnitude(),
    )


def hensel_solve(problem: HenselProblem) -> RootCertificate:
    """Iterate x <- x + f'(x)^(-1) (z - f(x)) until the residual vanishes
    modulo q^target_prec; quadratic convergence certified by the b trace."""
    state = _problem_state(problem)
    report = _hypotheses(problem, state)
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
    e_fp = state.fp0.valuation
    e_t = state.d0.valuation_lower_bound - e_fp
    if not (e_t + state.e_m2 > e_fp):
        raise ContractionFails(
            "t * M2 >= |f'(x0)|: the auxiliary map is not a contraction")
    return _solve(problem, state, newton=False)


def strassmann_bound(f: TruncatedSeries, m: int, from_index: int = 0) -> StrassmannReport:
    """N = the largest index attaining min_j (v(a_j) + m j) over j >=
    from_index.  The series has at most N zeros in the closed ball of
    radius q^(-m); computed from from_index = 1 the same N bounds the
    solution count of f(x) = z for every z."""
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
        j0 = max(f.stored_len, f.tail.start, from_index)
        tail_lb = (f.sup_exponent(m, j0) + m * j0
                   if j0 >= f.stored_len else None)
        if tail_lb is None or not (is_infinite(tail_lb) or tail_lb > best):
            raise TailInconclusive("tail bound does not dominate strictly")
    return StrassmannReport(bound_N=attaining, attaining_index=attaining)


def enumerate_roots(f: TruncatedSeries, m: int, scan_depth: int = 4,
                    target_prec: Optional[int] = None) -> List[RootCertificate]:
    """All roots of f in the closed ball of radius q^(-m), found by
    scanning residue classes to scan_depth, lifting every class where the
    hypotheses hold, and deflating found roots out before rescanning.

    Raises UndecidedMultipleRoot when a class reaches scan_depth with
    f and f' both indistinguishable from zero there.
    """
    f.require_radius(m)
    if target_prec is None:
        target_prec = f.working_precision
    q = f.descriptor.q
    report = strassmann_bound(f, m)
    roots: List[FieldElement] = []
    if report.bound_N > 0:
        start = FieldElement.zero_to_precision(f.descriptor, f.working_precision)
        _scan_class(_Scanned(f, m), m, start, m, m + scan_depth, target_prec, roots)

    certs: List[RootCertificate] = []
    zero = FieldElement.zero_to_precision(f.descriptor, f.working_precision)
    for x in roots:
        if any(x.agrees_with(c.root, target_prec) for c in certs):
            continue
        cert = hensel_solve(HenselProblem(f, x, zero, m, target_prec))
        certs.append(cert)
    certs.sort(key=lambda c: (c.root.valuation_lower_bound, c.root.digits))
    return certs


class _Scanned:
    """A series under the residue scan.  f changes only on deflation, so
    what the class visits read of it is computed once per series, when a
    visit first needs it."""

    def __init__(self, f: TruncatedSeries, m: int):
        self.f = f
        self.m = m

    @functools.cached_property
    def fprime(self) -> TruncatedSeries:
        return self.f.derivative()

    @functools.cached_property
    def e_m1(self) -> Valuation:
        return self.f.sup_exponent(self.m, 1)

    @functools.cached_property
    def e_m2(self) -> Valuation:
        return self.f.sup_exponent(self.m, 2)


def _scan_class(s: _Scanned, m: int, center: FieldElement, level: int,
                max_level: int, target_prec: int, out: List[FieldElement]) -> None:
    """Depth-first scan of the class {x = center mod q^level, v(x) >= m}."""
    f = s.f
    q = f.descriptor.q
    prec = min(f.working_precision, center.abs_precision)
    w = _eval_at_least(f, center, prec, 1)
    # any root x in the class has |f(center)| = |f(center) - f(x)| <=
    # M1 * q^(-level), so a smaller determined residual rules the class out
    if not w.is_zero_to_precision and w.valuation < s.e_m1 + (level - m):
        return
    fp = _eval_at_least(s.fprime, center, prec, 1)
    if not fp.is_zero_to_precision:
        e_fp = fp.valuation
        e_d = w.valuation_lower_bound
        close_in_class = e_d >= e_fp + (level - m) + m
        quadratic = s.e_m2 + e_d > 2 * e_fp
        if close_in_class and quadratic:
            zero = FieldElement.zero_to_precision(f.descriptor,
                                                  f.working_precision)
            cert = hensel_solve(HenselProblem(f, center, zero, m, target_prec))
            out.append(cert.root)
            # the root is unique in this class; strip it and rescan for others
            g0 = f.deflate(cert.root, m)
            try:
                strassmann_bound(g0, m)
            except AllCoefficientsIndistinguishableFromZero:
                return
            _scan_class(_Scanned(g0, m), m, center, level, max_level, target_prec, out)
            return
    if level >= max_level:
        raise UndecidedMultipleRoot(
            f"class at depth {level - m} has residual valuation >= "
            f"{w.valuation_lower_bound} with no usable derivative")
    for d in range(q):
        # d * uniformizer^level, exact, at the center's precision
        bump = FieldElement.from_rational(
            f.descriptor, d, 1, center.abs_precision - level).shift(level)
        _scan_class(s, m, center + bump, level + 1, max_level, target_prec, out)
