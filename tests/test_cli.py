import json
import math
import shlex
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvfield.cli import run
from dvfield.errors import ParseError
from dvfield.localfield import FieldElement, Qp, laurent_field
from dvfield.textio import (parse_ball, parse_element, parse_rational,
                            parse_series, render_element, render_fraction)

Q5 = Qp(5)
L3 = laurent_field(3)


def readme_examples():
    """(argv, printed value) of each `dvfield ... # value` line in the
    README's command-line block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    for line in block.splitlines():
        if line.startswith("dvfield ") and "#" in line:
            command, value = line.split("#", 1)
            yield shlex.split(command)[1:], value.strip()


README_EXAMPLES = list(readme_examples())
# one digit more than int() converts
HUGE = "9" * (sys.get_int_max_str_digits() + 1)
# the dimension log 2 / log 3 of the middle-thirds digit set {0, 2}
LOG3_2 = math.log(2) / math.log(3)


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out.strip(), captured.err.strip()


class TestTextIO:
    def test_parse_rational(self):
        assert parse_rational("7/9").numerator == 7
        assert parse_rational("-3") == -3
        with pytest.raises(ParseError):
            parse_rational("x/2")

    def test_element_round_trip(self):
        for text in ("3 + 2*5 + O(5^3)", "5^-2 * 2 + 1*5 + O(5^2)",
                     "O(5^4)"):
            x = parse_element(text, Q5, 8)
            assert parse_element(render_element(x), Q5, 8) == x

    def test_rational_shorthand(self):
        x = parse_element("1/2", Q5, 3)
        assert x.digits == (3, 2, 2)

    def test_laurent_tokens(self):
        x = parse_element("2 + 1*T + O(T^3)", L3, 8)
        assert x.digits == (2, 1, 0)
        assert "T" in render_element(x)

    def test_digit_out_of_range(self):
        with pytest.raises(ParseError):
            parse_element("7 + O(5^2)", Q5, 8)

    def test_ball_literal(self):
        b = parse_ball("1/2@2", Q5, 8)
        assert b.radius_exponent == 2
        assert b.center.reduce_mod(2) == 13

    def test_series_literal(self):
        f = parse_series("X^2 - 2", Q5, 8)
        assert f.stored_len == 3
        assert f.coeffs[0].agrees_with(
            FieldElement.from_rational(Q5, -2, 1, 8), 8)
        assert f.coeffs[1].is_zero_to_precision

    @pytest.mark.parametrize("parse, text, position", [
        (parse_rational, HUGE, 0),
        (parse_rational, f"1/{HUGE}", 2),
        (lambda t: parse_element(t, Q5, 8), f" 5^{HUGE} * 1 + O(5^2)", 3),
        (lambda t: parse_element(t, Q5, 8), f"1 + O(5^{HUGE})", 8),
        (lambda t: parse_element(t, Q5, 8), f"1 + {HUGE}*5 + O(5^2)", 4),
        (lambda t: parse_element(t, Q5, 8), f"1 + 1*5^{HUGE}", 8),
        (lambda t: parse_series(t, Q5, 8), f"1 + X^{HUGE}", 6),
        (lambda t: parse_series(t, Q5, 8), f"1 + {HUGE}*X", 4),
    ], ids=["numerator", "denominator", "shift", "precision", "digit",
            "exponent", "series-exponent", "series-coefficient"])
    def test_huge_integer_literal_is_a_parse_error(self, parse, text, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_series_literal_terms_in_any_order_and_spacing(self, data):
        draw = data.draw
        terms = draw(st.lists(st.tuples(
            st.integers(0, 6),
            st.one_of(st.sampled_from([1, -1]),
                      st.fractions(-40, 40, max_denominator=30))),
            min_size=1, max_size=6))
        space = st.sampled_from(["", " ", "  "])
        text, expected = draw(space), {}
        for i, (e, c) in enumerate(terms):
            expected[e] = expected.get(e, 0) + c
            # terms are unsigned: a leading '-' or a '-' separator negates
            mag = abs(c)
            if c < 0 or i > 0:
                text += ("-" if c < 0 else "+") + draw(space)
            if mag == 1 and draw(st.booleans()):
                text += "X" if e == 1 and draw(st.booleans()) else f"X^{e}"
            elif e == 0 and draw(st.booleans()):
                text += render_fraction(Fraction(mag))
            else:
                text += f"{render_fraction(Fraction(mag))}{draw(space)}*{draw(space)}X"
                text += "" if e == 1 and draw(st.booleans()) else f"^{e}"
            text += draw(space)
        f = parse_series(text, Q5, 8)
        degree = max(expected)
        assert f.stored_len == degree + 1
        for e in range(degree + 1):
            c = Fraction(expected.get(e, 0))
            assert f.coeffs[e] == FieldElement.from_rational(
                Q5, c.numerator, c.denominator, 8), (text, e)

    def test_series_with_exp_tail(self):
        f = parse_series("1 + X + tail:exp", Q5, 8)
        assert f.tail is not None
        assert f.materialized(4).coeffs[3].agrees_with(
            FieldElement.from_rational(Q5, 1, 6, 6), 6)


def element(text):
    return parse_element(text, Q5, 8)


def laurent(text):
    return parse_element(text, L3, 8)


def series(text):
    return parse_series(text, Q5, 8)


def ball(text):
    return parse_ball(text, Q5, 8)


class TestBoundaryRefusals:
    @pytest.mark.parametrize("parse, text, error, message, position", [
        (element, "1 2*5", ParseError, "expected '+' between terms", 2),
        (element, "O(5^3) y", ParseError, "expected '+' between terms", 7),
        (element, "O(5^3) + 1", ParseError, "precision marker must come last", 9),
        (element, "1 + O(5^2) + 3*5", ParseError, "precision marker must come last", 13),
        (element, " 1 + y", ParseError, "unrecognized term", 5),
        (element, "1 + 2", ParseError, "duplicate exponent 0", 4),
        (element, "1 + ", ParseError, "dangling '+'", 3),
        (element, "", ParseError, "expected a term", 0),
        (element, "  ", ParseError, "expected a term", 2),
        (element, "5^2 *", ParseError, "expected a term", 5),
        (laurent, "", ParseError, "expected a term", 0),
        (ball, "@1", ParseError, "expected a term", 0),
        (element, " 1*5^3 + O(5^2)", ParseError,
         "digit exponent 3 at or beyond precision 2", 1),
        (ball, "1/2", ParseError, "ball literal needs '@<radius_exponent>'", 3),
        (ball, "1/2@x", ParseError, "radius exponent must be an integer", 4),
        (series, "1 + - X", ParseError, "unexpected '-'", 4),
        (series, "1 --2", ParseError, "unexpected '-'", 3),
        (series, "--X + 4", ParseError, "unexpected '-'", 1),
        (series, "- - X", ParseError, "unexpected '-'", 2),
        (series, "1 + -2*X", ParseError, "unexpected '-'", 4),
        (series, "X X", ParseError, "expected '+' or '-' between terms", 2),
        (series, "1 + Y", ParseError, "unrecognized series term", 4),
        (series, "1 - tail:exp", ParseError, "tail marker cannot be negated", 4),
        (series, "-tail:exp", ParseError, "tail marker cannot be negated", 1),
        (series, "tail:exp + X", ParseError, "terms after tail marker", 11),
        (series, "", ParseError, "empty or dangling series literal", 0),
        (series, "  ", ParseError, "empty or dangling series literal", 2),
        (series, "-", ParseError, "empty or dangling series literal", 1),
        (series, "X + ", ParseError, "empty or dangling series literal", 4),
    ])
    def test_literal_refusal(self, parse, text, error, message, position):
        with pytest.raises(error) as info:
            parse(text)
        assert str(info.value) == message
        assert info.value.position == position

    @pytest.mark.parametrize("text, coeffs", [
        ("-X^2 + 3", [3, 0, -1]),
        ("- 2*X", [0, -2]),
        ("-3/2 - X", [Fraction(-3, 2), -1]),
    ])
    def test_leading_minus_signs_the_first_term(self, text, coeffs):
        f = series(text)
        assert f.coeffs == tuple(FieldElement.from_rational(
            Q5, Fraction(c).numerator, Fraction(c).denominator, 8) for c in coeffs)


class TestCommands:
    def test_val(self, capsys):
        assert run(["val", "-p", "3", "7/9"]) == 0
        assert out_of(capsys)[0] == "-2"

    def test_val_infinity(self, capsys):
        assert run(["val", "-p", "3", "0"]) == 0
        assert out_of(capsys)[0] == "INFINITY"

    def test_factval(self, capsys):
        assert run(["factval", "-p", "2", "10"]) == 0
        assert out_of(capsys)[0] == "8"

    def test_elem_normalize(self, capsys):
        assert run(["elem", "-p", "5", "-N", "3", "1/2"]) == 0
        assert out_of(capsys)[0] == "3 + 2*5 + 2*5^2 + O(5^3)"

    def test_elem_arithmetic(self, capsys):
        assert run(["elem", "-p", "5", "-N", "4", "1/2", "add", "1/2"]) == 0
        assert out_of(capsys)[0] == "1 + O(5^4)"

    def test_inv1m(self, capsys):
        assert run(["inv1m", "-p", "7", "-N", "3", "1*7 + O(7^3)"]) == 0
        x = parse_element(out_of(capsys)[0], Qp(7), 3)
        assert x.agrees_with(FieldElement.from_rational(Qp(7), 1, -6, 3), 3)

    def test_hensel_sqrt2_q7(self, capsys):
        assert run(["hensel", "-p", "7", "-N", "3",
                    "--f", "X^2 - 2", "--x0", "3", "--z", "0"]) == 0
        root = parse_element(out_of(capsys)[0], Qp(7), 3)
        assert root.reduce_mod(3) == 108

    def test_hensel_fixed_point_agrees(self, capsys):
        run(["hensel", "-p", "7", "-N", "3",
             "--f", "X^2", "--x0", "3", "--z", "2"])
        a = out_of(capsys)[0]
        run(["hensel", "-p", "7", "-N", "3", "--fixed-point",
             "--f", "X^2", "--x0", "3", "--z", "2"])
        b = out_of(capsys)[0]
        assert a == b

    def test_roots(self, capsys):
        assert run(["roots", "-p", "3", "-N", "4", "--f", "X^3 - X"]) == 0
        lines = out_of(capsys)[0].splitlines()
        assert len(lines) == 3

    def test_roots_read_a_series_literal_in_any_term_order(self, capsys):
        assert run(["roots", "-p", "5", "-N", "6", "--f", "X + 4"]) == 0
        ordered = out_of(capsys)[0]
        assert run(["roots", "-p", "5", "-N", "6", "--f", "4 + X"]) == 0
        assert out_of(capsys)[0] == ordered == (
            "1 + 4*5 + 4*5^2 + 4*5^3 + 4*5^4 + 4*5^5 + O(5^6)")

    def test_strassmann(self, capsys):
        assert run(["strassmann", "-p", "3", "-N", "8", "--f", "X^3 - X"]) == 0
        assert out_of(capsys)[0] == "3"

    def test_exp_and_log_round_trip(self, capsys):
        assert run(["exp", "-p", "5", "-N", "6", "1*5 + O(5^8)"]) == 0
        y = out_of(capsys)[0]
        assert run(["log", "-p", "5", "-N", "4", y]) == 0
        x = parse_element(out_of(capsys)[0], Q5, 4)
        assert x.agrees_with(FieldElement.from_rational(Q5, 5, 1, 4), 4)

    def test_measure_union(self, capsys):
        assert run(["measure", "-p", "5", "union", "1@1", "2@1"]) == 0
        assert out_of(capsys)[0] == "2/5"

    def test_measure_scale(self, capsys):
        assert run(["measure", "-p", "5", "--c", "5", "scale", "0@0"]) == 0
        assert out_of(capsys)[0] == "1/5"

    def test_measure_image(self, capsys):
        assert run(["measure", "-p", "5", "-N", "12", "--f", "X",
                    "--ball", "0@0", "image", "1@1", "2@1"]) == 0
        assert out_of(capsys)[0] == "2/5"

    def test_dim_alpha(self, capsys):
        assert run(["dim", "-p", "5", "alpha"]) == 0
        assert out_of(capsys)[0] == "1"
        assert run(["dim", "-p", "5", "alpha", "--snowflake", "2"]) == 0
        assert out_of(capsys)[0] == "1/2"

    def test_dim_digits(self, capsys):
        assert run(["dim", "-p", "3", "digits", "--digits", "0,2",
                    "--depth", "5", "--beta-log", "2"]) == 0
        text = out_of(capsys)[0]
        assert "balls=32" in text and "(vs 1: +0)" in text

    def test_dim_digits_at_depth_12_builds_no_cover(self, capsys):
        import dvfield.measure  # noqa: F401 (compiling it is not the cover)
        tracemalloc.start()
        try:
            assert run(["dim", "-p", "5", "digits", "--digits", "0,1,2,4",
                        "--depth", "12"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "balls=16777216" in out_of(capsys)[0]
        assert peak < 1024 * 1024

    def test_laurent_element(self, capsys):
        assert run(["elem", "-p", "3", "--laurent", "-N", "4",
                    "T^-1 * 2 + 1*T + O(T^2)"]) == 0
        x = parse_element(out_of(capsys)[0], L3, 4)
        assert x.valuation == -1 and x.digits[0] == 2


class TestJsonAndErrors:
    def test_json_matches_text(self, capsys):
        run(["elem", "-p", "5", "-N", "3", "1/2"])
        text = out_of(capsys)[0]
        run(["elem", "-p", "5", "-N", "3", "--json", "1/2"])
        payload = json.loads(out_of(capsys)[0])
        assert payload["text"] == text
        assert payload["digits"] == [3, 2, 2]

    def test_hensel_json_trace(self, capsys):
        run(["hensel", "-p", "7", "-N", "8", "--json",
             "--f", "X^2 - 2", "--x0", "3", "--z", "0"])
        payload = json.loads(out_of(capsys)[0])
        exps = payload["b_trace_exponents"]
        assert exps[0] == 1
        assert all(b >= 2 * a for a, b in zip(exps, exps[1:]))

    def test_parse_error_exits_1(self, capsys):
        assert run(["elem", "-p", "5", "9 + O(5^2)"]) == 1
        assert "parse error at position" in out_of(capsys)[1]

    def test_domain_error_exits_2(self, capsys):
        assert run(["exp", "-p", "5", "3"]) == 2
        assert out_of(capsys)[1].startswith("DomainError")

    def test_hypotheses_failure_exits_2(self, capsys):
        assert run(["hensel", "-p", "5", "-N", "4",
                    "--f", "X^2 - 2", "--x0", "1", "--z", "0"]) == 2
        assert out_of(capsys)[1].startswith("HypothesesFail")

    def test_unknown_flag_exits_1(self, capsys):
        assert run(["val", "-p", "5", "--bogus", "1"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["val", "-p", "4", "--", "12"], "argument -p/--prime: 4 is not prime"),
        (["elem", "--laurent", "-p", "4", "-N", "4", "--", "1"],
         "argument -p/--prime: 4 is not prime"),
        (["dim", "-p", "1", "alpha"], "argument -p/--prime: 1 is not prime"),
        (["factval", "-p", "3", "--", "-1"], "argument index: -1 is negative"),
        (["strassmann", "-p", "5", "--m", "1", "--f", "X + 5", "--from-index", "-1",
          "--json"], "argument --from-index: -1 is negative"),
        (["roots", "-p", "5", "--f", "X", "--depth", "-1"],
         "argument --depth: -1 is negative"),
        (["dim", "-p", "5", "digits", "--digits", "0,1", "--beta-log", "0"],
         "argument --beta-log: 0 is not positive"),
        (["dim", "-p", "5", "digits", "--digits", "0,1", "--beta-log=-2"],
         "argument --beta-log: -2 is not positive"),
    ])
    def test_bad_prime_or_index_is_a_usage_error(self, capsys, argv, message):
        assert run(argv) == 1
        err = out_of(capsys)[1]
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, value", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, value):
    assert run(argv) == 0
    assert out_of(capsys)[0] == value


def test_readme_lists_examples():
    assert len(README_EXAMPLES) >= 7


@pytest.mark.parametrize("argv, code, printed", [
    (["log", "-p", "2", "-N", "1", "1 + 1*2^2 + O(2^8)"], 0, "O(2^1)"),
    (["log", "-p", "3", "-N", "0", "1 + 1*3 + O(3^8)"], 0, "O(3^0)"),
    (["log", "-p", "5", "-N", "-3", "1 + 1*5 + O(5^8)"], 0, "O(5^-3)"),
    (["dim", "-p", "3", "digits", "--digits", "0,2", "--depth", "20000"], 2,
     "DomainError: 2^20000 balls: over"),
    (["dim", "-p", "3", "digits", "--digits", "0,2", "--depth", "20000",
      "--json"], 2, "DomainError"),
    # beta = 0: the content is the ball count 2^2000, past a float (named
    # here, as the count would fill the test id)
    pytest.param(["dim", "-p", "3", "digits", "--digits", "0,2", "--depth", "2000",
                  "--beta", "0"], 0,
                 f"balls={2 ** 2000} content~inf (vs 1: +1) dimension~{LOG3_2:.6f}",
                 id="dim-depth-2000-beta-0"),
    pytest.param(["dim", "-p", "3", "digits", "--digits", "0,2", "--depth", "2000",
                  "--beta", "0", "--json"], 0,
                 json.dumps({"ball_count": 2 ** 2000, "content_approx": math.inf,
                             "content_compare_to_one": 1,
                             "dimension": {"approx": LOG3_2, "count_base": 2,
                                           "scale_base": 3}}, sort_keys=True),
                 id="dim-depth-2000-beta-0-json"),
    (["val", "-p", "3", HUGE], 1, "parse error at position 0"),
    (["elem", "-p", "3", f"1 + O(3^{HUGE})"], 1, "parse error at position 8"),
    (["strassmann", "-p", "5", "--f", "X^2 + 1/0*X"], 1,
     "parse error at position 8: zero denominator"),
    (["strassmann", "-p", "3", "--m", "1", "--f", "9 + 9*X + tail:exp"], 2,
     "TailInconclusive: tail bound does not dominate strictly"),
    # 3^5 balls of radius 5^-5 at the default depth 5: content 243 5^(-5/10^8)
    (["dim", "-p", "5", "digits", "--digits", "0,1,3", "--beta", "1/100000000"], 0,
     f"balls=243 content~{243 * 5 ** -5e-8:.6f} (vs 1: +1) "
     f"dimension~{math.log(3) / math.log(5):.6f}"),
    (["elem", "-p", "5", "1", "add"], 1,
     "parse error at position 0: operator given without a second operand"),
    (["measure", "-p", "5", "scale", "0@0"], 1,
     "parse error at position 0: measure scale needs --c"),
    (["measure", "-p", "5", "--ball", "0@0", "image", "1@1"], 1,
     "parse error at position 0: measure image needs --f and --ball"),
    (["dim", "-p", "5", "digits", "--digits", "0,x"], 1,
     "parse error at position 0: digit set must be comma-separated integers"),
    (["val", "-p", "3", "--laurent", "T^-1 * 2 + O(T^2)"], 0, "-1"),
    (["val", "-p", "3", "--laurent", "--json", "T^-1 * 2 + O(T^2)"], 0,
     '{"valuation": -1}'),
    (["val", "-p", "3", "--laurent", "O(T^5)"], 0, ">= 5"),
    (["val", "-p", "3", "--laurent", "--json", "O(T^5)"], 0,
     '{"valuation_lower_bound": 5}'),
    (["dim", "-p", "5", "alpha", "--snowflake", "0"], 2,
     "DomainError: snowflake exponent must be positive"),
    (["roots", "-p", "3", "-N", "8", "--f", "3*X^3"], 2,
     "UndecidedMultipleRoot: class at depth 4 has"),
    # both square roots of 6, though they agree modulo 5^0
    (["roots", "-p", "5", "-N", "0", "--f", "X^2-6", "--json"], 0,
     json.dumps({"count": 2, "roots": 2 * [{"abs_precision": 0, "digits": [],
                                            "text": "O(5^0)", "valuation": None}]},
                sort_keys=True)),
    # x/5 maps B(0, 5^-2) onto B(0, 5^-1), known to its one digit at -N 3
    (["measure", "-p", "5", "-N", "3", "--f", "1/5*X", "--ball", "0@2", "image", "0@2"],
     0, "1/5"),
    (["factval", "-p", "2", "0"], 0, "0"),
    # B = 1, the least --beta-log, is beta = 0: the content is the ball count
    (["dim", "-p", "3", "digits", "--digits", "0,2", "--depth", "5", "--beta-log", "1"],
     0, f"balls=32 content~32.000000 (vs 1: +1) dimension~{LOG3_2:.6f}"),
    (["elem", "-p", "5", "5*5 + O(5^3)"], 1, "digit 5 out of range for base 5"),
    (["elem", "-p", "5", "1 + 2*5^3 + O(5^3)"], 1,
     "digit exponent 3 at or beyond precision 3"),
    # f'(5) = 3 is known modulo 5^3 only, below the center's 5^4: its
    # valuation is all the measure reads
    (["measure", "-p", "5", "-N", "4", "--f", "X + 1/5*X^2", "--ball", "5@2",
      "image", "5@2"], 0, "1/25"),
    # the image ball would need f(0) modulo 5^5; its measure needs v(f') = 0
    (["measure", "-p", "5", "-N", "3", "--f", "X", "--ball", "0@5", "image", "0@5"],
     0, "1/3125"),
])
def test_refusals_and_edge_answers_do_not_raise(capsys, argv, code, printed):
    """An answer (code 0) is the whole output; a refusal's message is
    part of its error line."""
    assert run(argv) == code
    out, err = out_of(capsys)
    if code == 0:
        assert out == printed
    else:
        assert printed in err


@pytest.mark.parametrize("argv, printed", [
    (["deflate", "-p", "7", "-N", "8", "--f", "X^2 - 4", "--x0", "2"],
     "(2 + O(7^8)) + (1 + O(7^8))*X"),
    (["recenter", "-p", "5", "-N", "4", "--f", "X^3 - 2*X + 7", "--x0", "3"],
     "(3 + 1*5^2 + O(5^4)) + (5^2 * 1 + O(5^2))*X + (4 + 1*5 + O(5^4))*X^2"
     " + (1 + O(5^4))*X^3"),
])
def test_series_text(capsys, argv, printed):
    assert run(argv) == 0
    assert out_of(capsys)[0] == printed


def test_series_text_ends_in_its_tail_marker(capsys):
    assert run(["deflate", "-p", "3", "-N", "4", "--f", "tail:exp",
                "--x0", "3^1 * 2 + O(3^4)", "--m", "1"]) == 0
    out = out_of(capsys)[0]
    assert out.startswith("(1 + 2*3^2 + 2*3^3 + 2*3^4 + O(3^5)) + (")
    assert out.endswith(")*X^17 + tail:...")


def test_ball_count_digit_limit_is_exact(capsys):
    # 10^(L-1) has L decimal digits, the most int-to-str converts; 10^L
    # has one more
    L = sys.get_int_max_str_digits()
    digits = ",".join(str(d) for d in range(10))
    argv = ["dim", "-p", "11", "digits", "--digits", digits, "--depth"]
    assert run(argv + [str(L - 1)]) == 0
    assert out_of(capsys)[0].startswith("balls=1" + "0" * (L - 1) + " ")
    assert run(argv + [str(L)]) == 2
