"""Certified solving of f(x) = z on closed balls.

One solve loop, x <- x + a^(-1) (z - f(x)), with two update rules:
Newton (Hensel) refreshes a = f'(x) at every step, the fixed-point map
freezes a = f'(x0).  Around it: hypothesis checks in exact magnitude
arithmetic, Strassmann zero bounds, and a desk-scale exhaustive root
enumerator used to verify both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

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


def _solve(problem: HenselProblem, state: _ProblemState,
           step: Callable[[FieldElement], FieldElement]) -> RootCertificate:
    """Iterate x <- x + step(x) * (z - f(x)) from x0 until the residual
    vanishes modulo q^target_prec, then certify |f'(root)| = |f'(x0)|."""
    f, z, target = problem.f, problem.z, problem.target_prec
    q = f.descriptor.q
    e_fp = state.fp0.valuation
    x = problem.x0
    trace: List[Magnitude] = []
    while True:
        fx = _eval_at_least(f, x, state.prec, target)
        r = z.truncate(min(z.abs_precision, fx.abs_precision)) - fx
        if r.valuation_lower_bound >= target:
            break
        trace.append(Magnitude(q, state.e_m2 + r.valuation - 2 * e_fp))
        x = x + step(x) * r
        if len(trace) > 4 * target + 8:
            raise PrecisionExhausted("iteration failed to converge")

    fpr = _eval_at_least(state.fprime, x, state.prec, e_fp + 1)
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

    def newton(x: FieldElement) -> FieldElement:
        fpx = _eval_at_least(state.fprime, x, state.prec, 1)
        if fpx.is_zero_to_precision:
            raise DerivativeIndistinguishableFromZero(
                "derivative lost during iteration")
        return fpx.inverse()

    return _solve(problem, state, newton)


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
    alpha_inv = state.fp0.inverse()
    return _solve(problem, state, lambda x: alpha_inv)


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
        _scan_class(f, m, start, m, m + scan_depth, target_prec, roots)

    certs: List[RootCertificate] = []
    zero = FieldElement.zero_to_precision(f.descriptor, f.working_precision)
    for x in roots:
        if any(x.agrees_with(c.root, target_prec) for c in certs):
            continue
        cert = hensel_solve(HenselProblem(f, x, zero, m, target_prec))
        certs.append(cert)
    certs.sort(key=lambda c: (c.root.valuation_lower_bound, c.root.digits))
    return certs


def _scan_class(f: TruncatedSeries, m: int, center: FieldElement, level: int,
                max_level: int, target_prec: int, out: List[FieldElement]) -> None:
    """Depth-first scan of the class {x = center mod q^level, v(x) >= m}."""
    q = f.descriptor.q
    prec = min(f.working_precision, center.abs_precision)
    w = _eval_at_least(f, center, prec, 1)
    e_m1 = f.sup_exponent(m, 1)
    # any root x in the class has |f(center)| = |f(center) - f(x)| <=
    # M1 * q^(-level), so a smaller determined residual rules the class out
    if not w.is_zero_to_precision and w.valuation < e_m1 + (level - m):
        return
    fp = _eval_at_least(f.derivative(), center, prec, 1)
    e_m2 = f.sup_exponent(m, 2)
    if not fp.is_zero_to_precision:
        e_fp = fp.valuation
        e_d = w.valuation_lower_bound
        close_in_class = e_d >= e_fp + (level - m) + m
        quadratic = e_m2 + e_d > 2 * e_fp
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
            _scan_class(g0, m, center, level, max_level, target_prec, out)
            return
    if level >= max_level:
        raise UndecidedMultipleRoot(
            f"class at depth {level - m} has residual valuation >= "
            f"{w.valuation_lower_bound} with no usable derivative")
    for d in range(q):
        # d * uniformizer^level, exact, at the center's precision
        bump = FieldElement.from_rational(
            f.descriptor, d, 1, center.abs_precision - level).shift(level)
        _scan_class(f, m, center + bump, level + 1, max_level, target_prec, out)
