"""Text formats for elements, balls, and series.

Element literal, with q the base numeral (e.g. 7) for p-adic fields and
T for Laurent series:

    [q^v *] d0 + d1*q + d2*q^2 + ... + O(q^K)

Digits satisfy 0 <= d < q; the optional prefix shifts by the valuation v
and then K counts relative to v (absolute precision v + K).  A bare
rational a/b (or integer) is also accepted.  An element that is zero to
precision N renders as O(q^N).  Ball literal: <element>@<radius_exp>.
Series literal: a polynomial in X with rational coefficients, its terms
c, c*X, c*X^e, X or X^e in any order and joined by '+' or '-', optionally
continued by "tail:exp" (coefficients 1/j! beyond those given).  A
leading '-' signs the first term; any other '-' where a term belongs is
refused.
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import ParseError
from .localfield import FieldDescriptor, FieldElement

if TYPE_CHECKING:
    from .measure import BallSpec
    from .series import TruncatedSeries

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


def _int(m: re.Match, group: int | str, offset: int = 0) -> int:
    """int() of m's group; a numeral too long for int() is a ParseError."""
    try:
        return int(m.group(group))
    except ValueError:
        raise ParseError("integer literal too long", offset + m.start(group)) from None


def parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ParseError(f"not a rational literal: {text!r}", 0)
    num = _int(m, 1)
    den = _int(m, 2) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator", text.index("/") + 1)
    return Fraction(num, den)


def _skip_spaces(s: str, pos: int) -> int:
    while pos < len(s) and s[pos].isspace():
        pos += 1
    return pos


def parse_element(text: str, descriptor: FieldDescriptor,
                  default_prec: int) -> FieldElement:
    q = descriptor.q
    s = text.strip()
    if _RATIONAL_RE.match(s):
        r = parse_rational(s)
        return FieldElement.from_rational(descriptor, r.numerator,
                                          r.denominator, default_prec)

    offset = len(text) - len(text.lstrip())
    base = re.escape(descriptor.base_token)
    v = 0
    prefix = re.match(rf"{base}\^(-?\d+)\s*\*\s*", s)
    if prefix:
        v = _int(prefix, 1, offset)
        offset += prefix.end()
        s = s[prefix.end():]

    term_re = re.compile(
        rf"O\(\s*{base}\^(?P<prec>-?\d+)\s*\)"               # O(q^K)
        rf"|(?:(?P<d>\d+)\s*\*\s*)?{base}(?:\^(?P<e>\d+))?"  # [d*]q[^e]
        rf"|(?P<digit>\d+)"                                  # bare digit
    )
    digits = {}
    rel_prec: Optional[int] = None
    pos = 0
    while True:
        if pos == len(s):
            raise ParseError("dangling '+'", offset + pos)
        if rel_prec is not None:
            raise ParseError("precision marker must come last", offset + pos)
        m = term_re.match(s, pos)
        if not m:
            raise ParseError("unrecognized term", offset + pos)
        if m["prec"] is not None:
            rel_prec = _int(m, "prec", offset)
        else:
            if m["digit"] is not None:
                d, e = _int(m, "digit", offset), 0
            else:
                d = _int(m, "d", offset) if m["d"] else 1
                e = _int(m, "e", offset) if m["e"] else 1
            if d >= q:
                raise ParseError(f"digit {d} out of range for base {q}",
                                 offset + pos)
            if e in digits:
                raise ParseError(f"duplicate exponent {e}", offset + pos)
            digits[e] = d
        pos = _skip_spaces(s, m.end())
        if pos == len(s):
            break
        if s[pos] != "+":
            raise ParseError("expected '+' between terms", offset + pos)
        pos = _skip_spaces(s, pos + 1)
    if rel_prec is None:
        rel_prec = default_prec
    for e in digits:
        if e >= rel_prec:
            raise ParseError(f"digit exponent {e} at or beyond precision "
                             f"{rel_prec}", offset)
    window = [digits.get(e, 0) for e in range(rel_prec)]
    return FieldElement.from_digits(descriptor, v, window, v + rel_prec)


def render_element(x: FieldElement) -> str:
    base = x.descriptor.base_token
    if x.is_zero_to_precision:
        return f"O({base}^{x.abs_precision})"
    v = x.valuation
    prefix = ""
    shift = 0
    if v != 0:
        prefix = f"{base}^{v} * "
        shift = v
    parts = []
    for i, d in enumerate(x.digits):
        if d == 0:
            continue
        e = v + i - shift
        if e == 0:
            parts.append(str(d))
        elif e == 1:
            parts.append(f"{d}*{base}")
        else:
            parts.append(f"{d}*{base}^{e}")
    parts.append(f"O({base}^{x.abs_precision - shift})")
    return prefix + " + ".join(parts)


def parse_ball(text: str, descriptor: FieldDescriptor,
               default_prec: int) -> BallSpec:
    if "@" not in text:
        raise ParseError("ball literal needs '@<radius_exponent>'", len(text))
    elem_text, _, radius_text = text.rpartition("@")
    try:
        radius = int(radius_text.strip())
    except ValueError:
        raise ParseError("radius exponent must be an integer",
                         len(elem_text) + 1) from None
    center = parse_element(elem_text, descriptor,
                           max(default_prec, radius))
    from .measure import BallSpec
    return BallSpec.make(center, radius)


_SERIES_TERM_RE = re.compile(
    r"(?P<tail>tail:exp)"
    r"|(?:(?P<coef>\d+(?:/\d+)?)\s*\*\s*)?X(?:\^(?P<e>\d+))?"  # [c*]X[^e]
    r"|(?P<const>\d+(?:/\d+)?)"                                # c
)


def parse_series(text: str, descriptor: FieldDescriptor,
                 prec: int) -> TruncatedSeries:
    from .series import TruncatedSeries, polynomial
    coeffs = {}
    tail_exp = False
    sign = 1
    pos = _skip_spaces(text, 0)
    if text.startswith("-", pos):
        # a leading minus signs the first term
        sign, pos = -1, _skip_spaces(text, pos + 1)
    while True:
        if pos == len(text):
            raise ParseError("empty or dangling series literal", pos)
        if text[pos] == "-":
            raise ParseError("unexpected '-'", pos)
        m = _SERIES_TERM_RE.match(text, pos)
        if not m:
            raise ParseError("unrecognized series term", pos)
        if m["tail"]:
            if sign < 0:
                raise ParseError("tail marker cannot be negated", pos)
            tail_exp = True
        else:
            group = "const" if m["const"] else "coef"
            c = Fraction(1)
            if m[group]:
                try:
                    c = parse_rational(m[group])
                except ParseError as exc:
                    raise ParseError(str(exc), exc.position + m.start(group)) from None
            e = 0 if m["const"] else _int(m, "e") if m["e"] else 1
            if tail_exp:
                raise ParseError("terms after tail marker", pos)
            coeffs[e] = coeffs.get(e, Fraction(0)) + sign * c
        pos = _skip_spaces(text, m.end())
        if pos == len(text):
            break
        if text[pos] not in "+-":
            raise ParseError("expected '+' or '-' between terms", pos)
        sign = -1 if text[pos] == "-" else 1
        pos = _skip_spaces(text, pos + 1)
    degree = max(coeffs) if coeffs else 0
    rationals = [coeffs.get(e, Fraction(0)) for e in range(degree + 1)]
    if not tail_exp:
        return polynomial(descriptor, rationals, prec)
    from .special import exp_series
    template = exp_series(descriptor, prec)
    elems = tuple(
        FieldElement.from_rational(descriptor, coeffs[j].numerator,
                                   coeffs[j].denominator, template.working_precision)
        if j in coeffs else template.coeff_factory(j)
        for j in range(len(rationals)))
    tail = dataclasses.replace(template.tail, start=len(elems))
    return TruncatedSeries(descriptor, elems, tail, template.coeff_factory)


def render_series(f: TruncatedSeries) -> str:
    parts = []
    for j, c in enumerate(f.coeffs):
        rendered = render_element(c)
        if j == 0:
            parts.append(f"({rendered})")
        elif j == 1:
            parts.append(f"({rendered})*X")
        else:
            parts.append(f"({rendered})*X^{j}")
    if f.tail is not None:
        parts.append("tail:...")
    return " + ".join(parts) if parts else "0"


def render_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
