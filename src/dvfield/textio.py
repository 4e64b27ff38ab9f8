"""Text formats for elements, balls, and series.

Element literal, with q the base numeral (e.g. 7) for p-adic fields and
T for Laurent series:

    [q^v *] d0 + d1*q + d2*q^2 + ... + O(q^K)

Digits satisfy 0 <= d < q; the optional prefix shifts by the valuation v
and then K counts relative to v (absolute precision v + K).  A bare
rational a/b (or integer) is also accepted.  An element that is zero to
precision N renders as O(q^N).  Ball literal: <element>@<radius_exp>.
Series literal: a polynomial in X with rational coefficients, optionally
continued by "tail:exp" (coefficients 1/j! beyond those given).
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import ParseError
from .localfield import FieldDescriptor, FieldElement, FieldKind
from .measure import BallSpec
from .series import TruncatedSeries, polynomial
from .special import exp_series

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ParseError(f"not a rational literal: {text!r}", 0)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator", text.index("/") + 1)
    return Fraction(num, den)


def _base_re(descriptor: FieldDescriptor) -> str:
    return re.escape(descriptor.base_token)


def parse_element(text: str, descriptor: FieldDescriptor,
                  default_prec: int) -> FieldElement:
    base = descriptor.base_token
    q = descriptor.q
    s = text.strip()
    if _RATIONAL_RE.match(s):
        r = parse_rational(s)
        return FieldElement.from_rational(descriptor, r.numerator,
                                          r.denominator, default_prec)

    offset = len(text) - len(text.lstrip())
    v = 0
    prefix = re.match(rf"{_base_re(descriptor)}\^(-?\d+)\s*\*\s*", s)
    if prefix:
        v = int(prefix.group(1))
        offset += prefix.end()
        s = s[prefix.end():]

    term_re = re.compile(
        rf"(?:O\(\s*{_base_re(descriptor)}\^(-?\d+)\s*\))"          # O(q^K)
        rf"|(?:(\d+)\s*\*\s*{_base_re(descriptor)}(?:\^(\d+))?)"    # d*q^e
        rf"|(?:{_base_re(descriptor)}(?:\^(\d+))?)"                 # q^e
        rf"|(\d+)"                                                  # bare digit
    )
    digits = {}
    rel_prec: Optional[int] = None
    pos = 0
    expecting_term = True
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        if not expecting_term:
            if s[pos] == "+":
                expecting_term = True
                pos += 1
                continue
            raise ParseError("expected '+' between terms", offset + pos)
        if rel_prec is not None:
            raise ParseError("precision marker must come last", offset + pos)
        m = term_re.match(s, pos)
        if not m:
            raise ParseError("unrecognized term", offset + pos)
        if m.group(1) is not None:
            rel_prec = int(m.group(1))
        else:
            if m.group(2) is not None:
                d = int(m.group(2))
                e = int(m.group(3)) if m.group(3) else 1
            elif m.group(5) is not None:
                d, e = int(m.group(5)), 0
            else:
                d, e = 1, int(m.group(4)) if m.group(4) else 1
            if d >= q:
                raise ParseError(f"digit {d} out of range for base {q}",
                                 offset + pos)
            if e in digits:
                raise ParseError(f"duplicate exponent {e}", offset + pos)
            digits[e] = d
        pos = m.end()
        expecting_term = False
    if expecting_term:
        raise ParseError("dangling '+'", offset + len(s))
    if rel_prec is None:
        rel_prec = default_prec
    for e in digits:
        if e >= rel_prec:
            raise ParseError(f"digit exponent {e} at or beyond precision "
                             f"{rel_prec}", offset)
    window = [digits.get(e, 0) for e in range(rel_prec)]
    return FieldElement._normalized(descriptor, v, window, v + rel_prec)


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
    return BallSpec.make(center, radius)


_SERIES_TERM_RE = re.compile(
    r"(?:(?P<tail>tail:exp)"
    r"|(?P<coef>-?\d+(?:/\d+)?)\s*(?:\*\s*X(?:\^(?P<e1>\d+))?)?"
    r"|X(?:\^(?P<e2>\d+))?)"
)


def parse_series(text: str, descriptor: FieldDescriptor,
                 prec: int) -> TruncatedSeries:
    s = text
    pos = 0
    sign = 1
    coeffs = {}
    tail_exp = False
    expecting_term = True
    seen_any = False
    while pos < len(s):
        ch = s[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "+" and not expecting_term:
            sign, expecting_term = 1, True
            pos += 1
            continue
        if ch == "-":
            if expecting_term and not seen_any:
                pass  # leading minus binds to the first coefficient
            elif expecting_term:
                raise ParseError("unexpected '-'", pos)
            sign, expecting_term = -1, True
            pos += 1
            # a '-' both separates and signs the next term
            m = _SERIES_TERM_RE.match(s, pos)
            if m and m.group("coef") and m.group("coef").startswith("-"):
                raise ParseError("double sign", pos)
            continue
        if not expecting_term:
            raise ParseError("expected '+' or '-' between terms", pos)
        m = _SERIES_TERM_RE.match(s, pos)
        if not m:
            raise ParseError("unrecognized series term", pos)
        if m.group("tail"):
            if sign < 0:
                raise ParseError("tail marker cannot be negated", pos)
            tail_exp = True
        else:
            if m.group("coef") is not None:
                c = parse_rational(m.group("coef"))
                if m.end("coef") != m.end():            # had *X part
                    e = int(m.group("e1")) if m.group("e1") else 1
                else:
                    e = 0
            else:
                c = Fraction(1)
                e = int(m.group("e2")) if m.group("e2") else 1
            if tail_exp:
                raise ParseError("terms after tail marker", pos)
            coeffs[e] = coeffs.get(e, Fraction(0)) + sign * c
        pos = m.end()
        sign = 1
        expecting_term = False
        seen_any = True
    if expecting_term:
        raise ParseError("empty or dangling series literal", pos)
    degree = max(coeffs) if coeffs else 0
    rationals = [coeffs.get(e, Fraction(0)) for e in range(degree + 1)]
    if not tail_exp:
        return polynomial(descriptor, rationals, prec)
    template = exp_series(descriptor, prec)
    stored = max(len(rationals), 1)
    elems = []
    for j in range(stored):
        if j < len(rationals) and coeffs.get(j) is not None:
            fr = rationals[j]
            elems.append(FieldElement.from_rational(
                descriptor, fr.numerator, fr.denominator,
                template.working_precision))
        else:
            elems.append(template.coeff_factory(j))
    tail = dataclasses.replace(template.tail, start=stored)
    return TruncatedSeries(descriptor, tuple(elems), tail,
                           template.coeff_factory)


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
