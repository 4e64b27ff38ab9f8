"""Command-line front end.

Exit codes: 0 on success, 1 on parse errors (with the offending
position) and usage errors, 2 on domain or hypothesis failures (with the
machine-readable error class name).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from fractions import Fraction
from typing import List, Optional

# `dvfield.cli.<name>` still reaches every package name, read from the
# submodule that binds it at each access.
from . import _resolve as __getattr__  # noqa: F401
from .errors import DomainError, ParseError, UltrametricError
from .localfield import (FieldDescriptor, FieldElement, Qp, invert_one_minus,
                         laurent_field)
from .textio import (parse_ball, parse_element, parse_rational, parse_series,
                     render_element, render_fraction, render_series)
from .valuation import factorial_valuation, is_infinite, is_prime, vp

# Each command imports the solver and measure modules it calls when it
# runs, so that a process answering one command compiles only those.


def _descriptor(args) -> FieldDescriptor:
    if args.laurent:
        return laurent_field(args.prime)
    return Qp(args.prime)


def _element_json(x: FieldElement) -> dict:
    return {
        "valuation": None if x.is_zero_to_precision else x.valuation,
        "digits": list(x.digits),
        "abs_precision": x.abs_precision,
        "text": render_element(x),
    }


def _fraction_json(x: Fraction) -> dict:
    return {"numerator": x.numerator, "denominator": x.denominator,
            "text": render_fraction(x)}


def _emit(args, text: str, payload) -> int:
    if args.json:
        print(json.dumps(payload, indent=None, sort_keys=True))
    else:
        print(text)
    return 0


def _cmd_val(args) -> int:
    desc = _descriptor(args)
    if args.laurent:
        x = parse_element(args.value, desc, args.precision)
        v = x.valuation_lower_bound
        if x.is_zero_to_precision:
            return _emit(args, f">= {v}", {"valuation_lower_bound": v})
    else:
        r = parse_rational(args.value)
        v = vp(args.prime, r)
        if is_infinite(v):
            return _emit(args, "INFINITY", {"valuation": None})
    return _emit(args, str(v), {"valuation": v})


def _cmd_factval(args) -> int:
    v = factorial_valuation(args.prime, args.index)
    return _emit(args, str(v), {"factorial_valuation": v})


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "div": operator.truediv}


def _cmd_elem(args) -> int:
    desc = _descriptor(args)
    a = parse_element(args.a, desc, args.precision)
    if args.op is None:
        return _emit(args, render_element(a), _element_json(a))
    if args.b is None:
        raise ParseError("operator given without a second operand", 0)
    b = parse_element(args.b, desc, args.precision)
    out = _OPS[args.op](a, b)
    return _emit(args, render_element(out), _element_json(out))


def _cmd_inv1m(args) -> int:
    desc = _descriptor(args)
    x = parse_element(args.value, desc, args.precision)
    out = invert_one_minus(x, args.precision)
    return _emit(args, render_element(out), _element_json(out))


def _cmd_hensel(args) -> int:
    from .rootfind import HenselProblem, fixed_point_solve, hensel_solve
    desc = _descriptor(args)
    f = parse_series(args.f, desc, args.precision + 4)
    x0 = parse_element(args.x0, desc, args.precision + 4)
    z = parse_element(args.z, desc, args.precision + 4)
    problem = HenselProblem(f, x0, z, args.ball, args.precision)
    solver = fixed_point_solve if args.fixed_point else hensel_solve
    cert = solver(problem)
    root = cert.root.truncate(args.precision)
    payload = {
        "root": _element_json(root),
        "residual_prec": cert.residual_prec,
        "uniqueness_exponent": cert.uniqueness_exponent,
        "b_trace_exponents": [None if is_infinite(b) else b for b in cert.b_trace],
    }
    return _emit(args, render_element(root), payload)


def _cmd_roots(args) -> int:
    from .rootfind import enumerate_roots
    desc = _descriptor(args)
    f = parse_series(args.f, desc, args.precision + 4)
    certs = enumerate_roots(f, args.ball, scan_depth=args.depth,
                            target_prec=args.precision)
    roots = [c.root.truncate(args.precision) for c in certs]
    payload = {"count": len(roots), "roots": [_element_json(r) for r in roots]}
    text = "\n".join(render_element(r) for r in roots) if roots else "(no roots)"
    return _emit(args, text, payload)


def _cmd_strassmann(args) -> int:
    from .rootfind import strassmann_bound
    desc = _descriptor(args)
    f = parse_series(args.f, desc, args.precision)
    report = strassmann_bound(f, args.ball, from_index=args.from_index)
    payload = {"bound": report.bound_N, "attaining_index": report.bound_N}
    return _emit(args, str(report.bound_N), payload)


def _cmd_exp(args) -> int:
    from .special import exp_eval
    desc = _descriptor(args)
    x = parse_element(args.value, desc, args.precision)
    out = exp_eval(x, args.precision)
    return _emit(args, render_element(out), _element_json(out))


def _cmd_log(args) -> int:
    from .special import log_solve
    desc = _descriptor(args)
    z = parse_element(args.value, desc, args.precision)
    out = log_solve(z, args.precision)
    return _emit(args, render_element(out), _element_json(out))


def _cmd_shift(args) -> int:
    """`recenter` or `deflate`, the series method the subcommand names."""
    desc = _descriptor(args)
    f = parse_series(args.f, desc, args.precision)
    x0 = parse_element(args.x0, desc, args.precision)
    out = getattr(f, args.command)(x0, args.ball)
    payload = {"coefficients": [_element_json(c) for c in out.coeffs]}
    return _emit(args, render_series(out), payload)


def _cmd_measure(args) -> int:
    from .measure import haar_union_measure, image_measure, scale_family
    desc = _descriptor(args)
    balls = [parse_ball(t, desc, args.precision) for t in args.balls]
    if args.action == "union":
        total = haar_union_measure(balls)
        return _emit(args, render_fraction(total), _fraction_json(total))
    if args.action == "scale":
        if args.c is None:
            raise ParseError("measure scale needs --c", 0)
        c = parse_element(args.c, desc, args.precision)
        family, ratio = scale_family(c, balls)
        text = render_fraction(ratio)
        payload = {"ratio": _fraction_json(ratio),
                   "balls": [f"{render_element(b.center)}@{b.radius_exponent}"
                             for b in family]}
        return _emit(args, text, payload)
    if args.f is None or args.ball is None:
        raise ParseError("measure image needs --f and --ball", 0)
    f = parse_series(args.f, desc, args.precision)
    ball = parse_ball(args.ball, desc, args.precision)
    total = image_measure(f, ball, balls)
    return _emit(args, render_fraction(total), _fraction_json(total))


def _cmd_dim(args) -> int:
    from .measure import DimensionValue, digit_set_analysis, hausdorff_alpha
    if args.what == "alpha":
        desc = _descriptor(args)
        a = parse_rational(args.snowflake)
        dv = hausdorff_alpha(desc, a)
        exact = dv.rational_value()
        text = render_fraction(exact) if exact is not None else f"{dv.approx():.12f}"
        payload = {"count_base": dv.count_base, "scale_base": dv.scale_base,
                   "factor": _fraction_json(dv.factor),
                   "exact": _fraction_json(exact) if exact is not None else None,
                   "approx": dv.approx()}
        return _emit(args, text, payload)
    try:
        digits = [int(t) for t in args.digits.split(",") if t.strip() != ""]
    except ValueError:
        raise ParseError("digit set must be comma-separated integers", 0) from None
    count, limit = len(set(digits)), sys.get_int_max_str_digits()
    if count > 1 and limit and args.depth * math.log10(count) >= limit:
        raise DomainError(f"{count}^{args.depth} balls: over {limit} decimal digits")
    if args.beta_log is not None:
        beta = DimensionValue(args.beta_log, args.prime)
    else:
        beta = parse_rational(args.beta)
    report = digit_set_analysis(args.prime, digits, args.depth, beta)
    cmp_one = report.content_estimate.compare_to_one()
    dim = report.dimension
    text = (f"balls={report.ball_count} content~{report.content_estimate.approx():.6f} "
            f"(vs 1: {cmp_one:+d}) dimension~{dim.approx():.6f}")
    payload = {"ball_count": report.ball_count,
               "content_compare_to_one": cmp_one,
               "content_approx": report.content_estimate.approx(),
               "dimension": {"count_base": dim.count_base,
                             "scale_base": dim.scale_base,
                             "approx": dim.approx()}}
    return _emit(args, text, payload)


def prime(text: str) -> int:
    """argparse type of -p: a prime, refused with a usage error otherwise."""
    p = int(text)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def index(text: str) -> int:
    """argparse type of an index that must be nonnegative: factval's j in
    j!, strassmann's --from-index and roots' --depth."""
    j = int(text)
    if j < 0:
        raise argparse.ArgumentTypeError(f"{j} is negative")
    return j


def positive(text: str) -> int:
    """argparse type of dim's --beta-log B, an integer >= 1."""
    b = int(text)
    if b < 1:
        raise argparse.ArgumentTypeError(f"{b} is not positive")
    return b


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvfield",
        description="Exact arithmetic, root solving, and measure on "
                    "p-adic numbers and formal Laurent series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ball=False, series=False):
        p.add_argument("-p", "--prime", type=prime, required=True)
        p.add_argument("--laurent", action="store_true",
                       help="work in F_q((T)) instead of Q_p")
        p.add_argument("-N", "--precision", type=int, default=16)
        p.add_argument("--json", action="store_true")
        if ball:
            p.add_argument("--m", dest="ball", type=int, default=0,
                           help="domain ball radius exponent (default 0)")
        if series:
            p.add_argument("--f", required=True, help="series literal")

    p = sub.add_parser("val", help="valuation of a rational or element")
    common(p)
    p.add_argument("value")
    p.set_defaults(func=_cmd_val)

    p = sub.add_parser("factval", help="valuation of j!")
    common(p)
    p.add_argument("index", type=index)
    p.set_defaults(func=_cmd_factval)

    p = sub.add_parser("elem", help="parse/normalize an element, or combine two")
    common(p)
    p.add_argument("a")
    p.add_argument("op", nargs="?", choices=["add", "sub", "mul", "div"])
    p.add_argument("b", nargs="?")
    p.set_defaults(func=_cmd_elem)

    p = sub.add_parser("inv1m", help="(1 - x)^(-1) for v(x) >= 1")
    common(p)
    p.add_argument("value")
    p.set_defaults(func=_cmd_inv1m)

    p = sub.add_parser("hensel", help="solve f(x) = z near x0")
    common(p, ball=True, series=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--fixed-point", action="store_true",
                   help="use the frozen-derivative contraction instead")
    p.set_defaults(func=_cmd_hensel)

    p = sub.add_parser("roots", help="all roots of f in a ball")
    common(p, ball=True, series=True)
    p.add_argument("--depth", type=index, default=4)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("strassmann", help="zero-count bound on a ball")
    common(p, ball=True, series=True)
    p.add_argument("--from-index", type=index, default=0)
    p.set_defaults(func=_cmd_strassmann)

    p = sub.add_parser("exp", help="p-adic exponential")
    common(p)
    p.add_argument("value")
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("log", help="inverse of the exponential")
    common(p)
    p.add_argument("value")
    p.set_defaults(func=_cmd_log)

    for name, text in (("recenter", "rewrite f around a new center"),
                       ("deflate", "divide out a root: f(x)-f(x0) = (x-x0) g(x)")):
        p = sub.add_parser(name, help=text)
        common(p, ball=True, series=True)
        p.add_argument("--x0", required=True)
        p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("measure", help="Haar measure of ball families")
    common(p)
    p.add_argument("action", choices=["union", "scale", "image"])
    p.add_argument("balls", nargs="*", help="ball literals center@radius_exp")
    p.add_argument("--c", help="scaling element (for scale)")
    p.add_argument("--f", help="series literal (for image)")
    p.add_argument("--ball", help="admissible ball literal (for image)")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("dim", help="dimension computations")
    common(p)
    p.add_argument("what", choices=["alpha", "digits"])
    p.add_argument("--snowflake", default="1",
                   help="snowflake exponent a (for alpha)")
    p.add_argument("--digits", default="",
                   help="comma-separated digit set (for digits)")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--beta", default="1", help="content exponent as a rational")
    p.add_argument("--beta-log", type=positive, default=None,
                   help="content exponent log(B)/log(p) given by B")
    p.set_defaults(func=_cmd_dim)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error at position {exc.position}: {exc}", file=sys.stderr)
        return 1
    except UltrametricError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
