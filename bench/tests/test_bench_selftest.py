"""Self-tests of the benchmark: seeded inputs, oracles, outcome
classification, calibration, the span recorder and the compare rules.

    python3 -m pytest bench/tests
"""

import gc
import os
import sys
import types
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import dvfield as dv  # noqa: E402

import calibrate  # noqa: E402
import compare  # noqa: E402
import oracles as orc  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


def _round(name, seed, in_process=False):
    return W.make_workload(name, seed, ROOT, in_process).make_round()


def _fingerprint(ops):
    return [(op.kind, op.tier, op.top, op.expect, op.inputs) for op in ops]


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    a, b = W.make_workload(name, 7, ROOT), W.make_workload(name, 7, ROOT)
    for _ in range(2):
        assert _fingerprint(a.make_round()) == _fingerprint(b.make_round())
    assert _fingerprint(_round(name, 7)) != _fingerprint(_round(name, 8))
    assert all(op.inputs for op in _round(name, 7))


def _plant(x, j):
    """x with its digit at position j changed."""
    bump = dv.FieldElement.from_rational(x.descriptor, 1, 1, x.abs_precision - j).shift(j)
    return x + bump


def test_exp_and_log_oracles_reject_a_planted_digit():
    ops = [op for op in _round("padic-exp-log", 3) if op.tier == 30 and op.expect == "value"]
    assert {op.kind for op in ops} == {"exp", "log"}
    for op in ops:
        value = op.call()
        assert op.check(value) == W.OK
        for j in (0, 7, value.abs_precision - 1):
            assert op.check(_plant(value, j)) == W.WRONG
        assert op.check(value.truncate(value.abs_precision - 1)) == W.SHORT


def test_exp_oracle_agrees_with_the_library():
    for p in (2, 3, 5, 7):
        x = Fraction(p ** dv.e_min(p) * 11, 13)
        y = dv.exp_eval(dv.FieldElement.from_rational(dv.Qp(p), 11 * p ** dv.e_min(p), 13, 40), 40)
        assert y.reduce_mod(40) == orc.exp_mod(p, x, 40)


def test_root_oracle_counts_and_digits():
    F = dv.Qp(5)
    roots = [3, 3 + 25 * 7, 12]
    known = [lambda k, r=r: orc.residue(5, r, k) for r in roots]
    check = W._check_roots(known, 10)
    certs = [types.SimpleNamespace(root=W.padic(F, r, 12)) for r in roots]
    assert check(certs) == W.OK
    assert check(certs[:2]) == W.WRONG                      # a root is missing
    assert check(certs + certs[:1]) == W.WRONG              # a root is repeated
    planted = [types.SimpleNamespace(root=_plant(certs[0].root, 11))] + certs[1:]
    assert check(planted) == W.WRONG
    L = dv.laurent_field(3)
    r = [2, 1, 0, 2]
    x = W.laurent(L, r, 12)
    assert W._check_element(lambda k: orc.code(r, 3, k), 12)(x) == W.OK
    assert W._check_element(lambda k: orc.code(r, 3, k), 12)(_plant(x, 9)) == W.WRONG


def test_overclaimed_root_is_judged_wrong():
    # ROADMAP item 2: enumerate_roots(X^2 - 9) over Q_3 returned -3 as
    # 240 mod 3^6 while claiming O(3^10); the input stays in every round
    ops = _round("roots-mixed", 1)
    nine = [op for op in ops if op.inputs[:3] == ("padic", 3, ("3", "-3"))]
    assert {op.tier for op in nine} == {16, 64, 256}
    assert any(op.inputs == (2, "X^2 - 17", 16) for op in ops)
    known = [lambda k: orc.residue(3, 3, k), lambda k: orc.residue(3, -3, k)]
    check = W._check_roots(known, 6)
    F = dv.Qp(3)
    right = [types.SimpleNamespace(root=W.padic(F, r, 10)) for r in (3, -3)]
    assert check(right) == W.OK
    assert check([right[0], types.SimpleNamespace(root=W.padic(F, 240, 10))]) == W.WRONG


def test_simple_roots_are_answered_right():
    # roots-simple leaves out every ROADMAP item 2 input, so the library
    # answers each of its operations as expected
    ops = [op for op in _round("roots-simple", 5) if op.tier == 16]
    assert {op.kind for op in ops} == {"enumerate_roots", "hensel_solve", "fixed_point_solve"}
    for op in ops:
        assert op.outcome(op.call(), None) == W.OK


def test_measure_oracles_reject_wrong_answers():
    ops = _round("measure-balls", 2)
    union = next(op for op in ops if op.kind == "haar_union_measure" and op.tier == 100)
    value = union.call()
    assert union.check(value) == W.OK
    assert union.check(value + Fraction(1, 3 ** 12)) == W.WRONG
    digits = next(op for op in ops if op.kind == "digit_set_analysis")
    report = digits.call()
    assert digits.check(report) == W.OK
    assert digits.check(types.SimpleNamespace(
        ball_count=report.ball_count + 1, content_estimate=report.content_estimate,
        dimension=report.dimension)) == W.WRONG
    assert orc.union_measure(5, [(1, 1), (2, 1), (7, 2)]) == Fraction(2, 5)


def test_refusals_are_classified():
    for name in ("padic-exp-log", "measure-balls"):
        refusals = [op for op in _round(name, 4) if op.expect != "value"]
        assert refusals
        for op in refusals:
            exc = pytest.raises(dv.DomainError, op.call).value
            assert op.outcome(None, exc) == "ok"
    ops = _round("padic-exp-log", 4)
    refusal = next(op for op in ops if op.expect == "DomainError" and op.kind == "exp")
    assert refusal.outcome("an answer", None) == "answered"
    assert refusal.outcome(None, dv.PrecisionExhausted("x")) == "wrong_error"
    answer = next(op for op in ops if op.expect == "value")
    assert answer.outcome(None, dv.PrecisionExhausted("x")) == "refused"
    assert answer.outcome(None, ValueError("x")) == "untyped"


def test_cli_refusals_are_classified_in_process():
    ops = _round("cli-commands", 5, in_process=True)
    refusals = [op for op in ops if op.expect != "value"]
    assert {op.expect for op in refusals} == {"DomainError", "ParseError"}
    for op in refusals:
        with pytest.raises(W.CliRefusal) as info:
            op.call()
        assert op.outcome(None, info.value) == "ok"
    val = next(op for op in ops if op.kind == "val")
    assert val.outcome(val.call(), None) == W.OK


def test_self_time_subtracts_child_spans():
    rec = tracer.SpanRecorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(3)])
    rec.op_id = 0
    outer()
    s = rec.summary()
    assert s["inner"]["calls"] == 3 and s["outer"]["calls"] == 1
    whole = rec.end[0] - rec.start[0]
    assert s["outer"]["self_s"] == pytest.approx(whole - s["inner"]["self_s"])
    assert rec.has_ancestor(1, "outer") and not rec.has_ancestor(0, "inner")


def test_install_wraps_every_binding_and_restores():
    orig_hensel, orig_add = dv.rootfind.hensel_solve, dv.FieldElement.__add__
    rec = tracer.SpanRecorder()
    uninstall = tracer.install(rec, {})
    try:
        assert dv.special.hensel_solve is dv.rootfind.hensel_solve is dv.hensel_solve
        assert dv.rootfind.hensel_solve is not orig_hensel
        assert dv.cli.exp_eval is dv.special.exp_eval
        rec.op_id = 0
        dv.log_solve(dv.FieldElement.from_rational(dv.Qp(5), 6, 1, 10), 6)
    finally:
        uninstall()
    assert dv.rootfind.hensel_solve is orig_hensel and dv.special.hensel_solve is orig_hensel
    assert dv.FieldElement.__add__ is orig_add
    s = rec.summary()
    assert s["special.log_solve"]["calls"] == 1
    assert s["rootfind.hensel_solve"]["calls"] == 1
    assert s["localfield.add"]["calls"] > 0


def test_compare_rules():
    parent = [10.0 + 0.1 * i for i in range(10)]
    faster = [v * 1.3 for v in parent]
    assert compare.judge(parent, faster, "higher", 0.1, False).startswith("gain")
    assert compare.judge(parent, faster, "higher", 0.1, True).startswith("gain-void")
    slower = [v * 0.8 for v in parent]
    assert compare.judge(parent, slower, "higher", 0.1, False).startswith("REGRESSION")
    noisy = [1.0, 5.0] * 5
    assert compare.judge(noisy, list(noisy), "lower", 0.1, False).startswith("unresolved")
    assert compare.judge(parent, list(parent), "higher", 0.1, False).startswith("ok")
    assert compare.judge(parent[:4], parent[:4], "higher", 0.1, False).startswith("too-few")
    # a faster time-bounded run attempts, and at the same rate fails, more
    # operations: that is still a gain
    p_runs = [{"attempted": 100, "failed": 75}] * 10
    c_runs = [{"attempted": 130, "failed": 97}] * 5 + [{"attempted": 130, "failed": 98}] * 5
    more = compare.failure_rate(c_runs) > compare.failure_rate(p_runs)
    assert compare.judge(parent, faster, "higher", 0.1, more).startswith("gain(")
    assert compare.failure_rate([{"attempted": 130, "failed": 100}]) > compare.failure_rate(p_runs)


def test_calibration_scales_by_the_reference_median():
    cal = calibrate.Calibration()
    cal.samples = [0.002, 0.004, 0.003]
    assert cal.factor == pytest.approx((calibrate.NOMINAL_S / 0.003) ** calibrate.DAMPING)
    gc_was = gc.isenabled()
    assert calibrate.reference_seconds() > 0
    assert gc.isenabled() == gc_was
