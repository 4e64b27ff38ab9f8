"""Reference model of the logarithm as it was before the closed form:
`log_solve` verbatim, solving E(x) = z with the library's Hensel solver
from x0 = 0, where E(0) = 1 and E'(0) = 1, so Newton finds every digit.

The library starts the same solve at the closed-form log z
(`special._log_mod`) and must return the same element to the same
precision, or refuse with the same error class, on every input;
`tests/test_special.py` checks that.
"""

from __future__ import annotations

from dvfield.errors import DomainError
from dvfield.localfield import FieldElement
from dvfield.rootfind import HenselProblem, hensel_solve
from dvfield.special import _require_padic, e_min, exp_series


def log_solve(z: FieldElement, target_prec: int) -> FieldElement:
    """The unique x in the convergence domain with E(x) = z modulo
    q^target_prec, found by solving E(x) = z from x0 = 0 where E(0) = 1
    and E'(0) = 1."""
    _require_padic(z.descriptor)
    p = z.descriptor.q
    one = FieldElement.one(z.descriptor, z.abs_precision)
    if (z - one).valuation_lower_bound < e_min(p):
        raise DomainError(
            f"logarithm undefined: need valuation(z - 1) >= {e_min(p)}")
    if target_prec <= e_min(p):
        # log is an isometry on the domain: v(log z) = v(z - 1) >= e_min
        return FieldElement.zero_to_precision(z.descriptor, target_prec)
    # digits of z beyond the target cannot change x modulo q^target_prec
    z = z.truncate(min(z.abs_precision, target_prec))
    f = exp_series(z.descriptor, target_prec)
    x0 = FieldElement.zero_to_precision(z.descriptor, z.abs_precision)
    cert = hensel_solve(HenselProblem(f, x0, z, e_min(p), target_prec))
    return cert.root.truncate(target_prec)
