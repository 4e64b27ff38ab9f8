"""One round of the benchmark's roots-mixed workload, seed 1, as a test.

`bench/workloads.py` builds the inputs and the oracles that judge each
answer at the precision it claims: simple roots, close pairs,
X^2 - p^2 c and squares over Q_2 (v(f'(root)) > 0), X^2 - 9 over Q_3
and X^2 - 17 over Q_2, at N = 16, 64 and 256.  The workload is only
read here.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402


def test_every_roots_mixed_answer_is_right():
    ops = workloads.make_workload("roots-mixed", 1, ROOT).make_round()
    bad = []
    for op in ops:
        try:
            value, exc = op.call(), None
        except Exception as e:      # classified by the workload
            value, exc = None, e
        outcome = op.outcome(value, exc)
        if outcome != "ok":
            bad.append((op.kind, op.inputs, outcome))
    assert len(ops) > 100
    assert bad == []
