"""Reference model of the solve loop, as it was before the precision
schedule: `_solve`, `hensel_solve` and `fixed_point_solve` verbatim,
every step evaluating f and f' at the working precision, and the target
check they made.  The other helpers they call (`_problem_state`,
`_hypotheses`, `_eval_at_least`) are the library's.

This loop returns its iterates with every digit they are known to, also
above the residual_prec - e_fp its residual proves.  The library keeps
only those and refuses only where this loop refuses or where target +
e_fp exceeds the working precision; `tests/test_solve_fuzz.py` states
the contract.
"""

from __future__ import annotations

from typing import Callable, List

from dvfield.errors import (ContractionFails,
                            DerivativeIndistinguishableFromZero,
                            HypothesesFail, PrecisionExhausted)
from dvfield.localfield import FieldElement
from dvfield.rootfind import (HenselProblem, RootCertificate, _ProblemState,
                              _eval_at_least, _hypotheses, _problem_state)
from dvfield.valuation import Valuation


def _require_target(problem: HenselProblem, state: _ProblemState) -> None:
    if problem.target_prec > state.prec:
        raise PrecisionExhausted(
            f"target precision {problem.target_prec} exceeds working "
            f"precision {state.prec}")


def _solve(problem: HenselProblem, state: _ProblemState,
           step: Callable[[FieldElement], FieldElement]) -> RootCertificate:
    """Iterate x <- x + step(x) * (z - f(x)) from x0 until the residual
    vanishes modulo q^target_prec, then certify |f'(root)| = |f'(x0)|."""
    f, z, target = problem.f, problem.z, problem.target_prec
    e_fp = state.fp0.valuation
    x = problem.x0
    trace: List[Valuation] = []
    while True:
        fx = _eval_at_least(f, x, state.prec, target)
        r = z.truncate(min(z.abs_precision, fx.abs_precision)) - fx
        if r.valuation_lower_bound >= target:
            break
        trace.append(state.e_m2 + r.valuation - 2 * e_fp)
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
        derivative_valuation=fpr.valuation,
    )


def hensel_solve(problem: HenselProblem) -> RootCertificate:
    """Iterate x <- x + f'(x)^(-1) (z - f(x)) until the residual vanishes
    modulo q^target_prec; quadratic convergence certified by the b trace."""
    state = _problem_state(problem)
    report = _hypotheses(problem, state, problem.m)
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
