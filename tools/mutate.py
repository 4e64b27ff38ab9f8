"""Mutation check of the test suite by comparison flips.

    python tools/mutate.py measure rootfind [--workdir DIR]

For each comparison in src/dvfield/<module>.py, one at a time, the runner
flips its operator (< and <=, > and >=, == and !=, is and is not, in and
not in) in a copy of the tree and runs that module's own test files
(`TESTS`) against the copy with `pytest -x`.  A mutant that every test
passes has survived: no test tells it from the real code.  Each
survivor is printed as file:line, the flip and the source line; the exit
status is 1 when any mutant survived.

One pytest process runs at a time.  The unmutated tests run first and
are timed; a mutant's run may take `SLOWDOWN` times as long, after
which it counts as killed (a flipped loop bound can make the tests
hang).  The checkout itself is never written: the copy lives in
--workdir, a fresh temporary directory by default.  A module takes
minutes, so this is no part of the tier-1 run.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from typing import List, NamedTuple, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# each module's own test files, relative to the checkout
TESTS = {
    "arith": ["tests/test_localfield.py", "tests/test_kernels_fuzz.py",
              "tests/test_laurent_inverse.py"],
    "cli": ["tests/test_cli.py", "tests/test_cli_golden.py"],
    "localfield": ["tests/test_localfield.py", "tests/test_kernels_fuzz.py",
                   "tests/test_laurent_inverse.py", "tests/test_cli.py"],
    "measure": ["tests/test_measure.py", "tests/test_disjoint_fuzz.py"],
    "rootfind": ["tests/test_rootfind.py", "tests/test_solve_fuzz.py",
                 "tests/test_roots_mixed.py"],
    "series": ["tests/test_series.py", "tests/test_series_fuzz.py"],
    "special": ["tests/test_special.py"],
    "textio": ["tests/test_cli.py", "tests/test_cli_golden.py"],
    "valuation": ["tests/test_valuation.py", "tests/test_localfield.py"],
}

SLOWDOWN = 10

FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
        "is": "is not", "is not": "is", "in": "not in", "not in": "in"}


class Mutant(NamedTuple):
    line: int
    start: int          # character offsets of the operator in the source
    end: int
    old: str
    new: str


def _offsets(source: str) -> List[int]:
    """Character offset of the start of each line, 1-based by index."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def mutants(source: str) -> List[Mutant]:
    """Every comparison operator flip, in source order."""
    lines = source.splitlines(keepends=True)
    starts = _offsets(source)

    def char_pos(line: int, byte_col: int) -> int:
        # ast columns count UTF-8 bytes, tokenize columns characters
        return starts[line] + len(lines[line - 1].encode()[:byte_col].decode())

    tokens = [(starts[t.start[0]] + t.start[1], starts[t.end[0]] + t.end[1], t.string)
              for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME)]
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        left = node.left
        for right in node.comparators:
            lo = char_pos(left.end_lineno, left.end_col_offset)
            hi = char_pos(right.lineno, right.col_offset)
            # the operator's tokens lie between the operands, past any ')'
            op = [t for t in tokens if lo <= t[0] and t[1] <= hi and t[2] not in "()"]
            text = " ".join(t[2] for t in op)
            found.append(Mutant(source.count("\n", 0, op[0][0]) + 1, op[0][0],
                                op[-1][1], text, FLIP[text]))
            left = right
    return sorted(found)


def run_tests(copy: str, tests: List[str], timeout: Optional[float]) -> Tuple[bool, str]:
    """(passed, how) for the module's tests on the copy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, "timeout"
    return proc.returncode == 0, f"exit {proc.returncode}"


def check_module(module: str, copy: str) -> List[Mutant]:
    path = os.path.join(copy, "src", "dvfield", f"{module}.py")
    with open(path) as fh:
        source = fh.read()
    tests = TESTS[module]
    start = time.monotonic()
    ok, how = run_tests(copy, tests, None)
    if not ok:
        sys.exit(f"mutate: {module}'s tests fail on the unmutated code ({how})")
    timeout = SLOWDOWN * (time.monotonic() - start)
    survivors = []
    all_mutants = mutants(source)
    try:
        for i, m in enumerate(all_mutants, 1):
            with open(path, "w") as fh:
                fh.write(source[:m.start] + m.new + source[m.end:])
            survived, how = run_tests(copy, tests, timeout)
            where = f"{module}.py:{m.line}"
            print(f"[{i}/{len(all_mutants)}] {where} {m.old!r} -> {m.new!r}: "
                  f"{'SURVIVED' if survived else 'killed (' + how + ')'}", flush=True)
            if survived:
                survivors.append(m)
    finally:
        with open(path, "w") as fh:
            fh.write(source)
    lines = source.splitlines()
    print(f"{module}: {len(all_mutants)} mutants, {len(survivors)} survived")
    for m in survivors:
        print(f"  {module}.py:{m.line}: {m.old} -> {m.new}   {lines[m.line - 1].strip()}")
    return survivors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="+", choices=sorted(TESTS))
    ap.add_argument("--workdir", help="where to copy the tree (default: a new temp dir)")
    args = ap.parse_args(argv)
    workdir = args.workdir or tempfile.mkdtemp(prefix="dvfield-mutate-")
    copy = os.path.join(workdir, "tree")
    shutil.rmtree(copy, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests", "bench"):      # some tests read bench/ workloads
        shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part), ignore=skip)
    for name in ("pyproject.toml", "README.md"):    # the CLI tests run README's examples
        shutil.copy(os.path.join(ROOT, name), copy)
    try:
        survivors = [m for module in args.modules
                     for m in check_module(module, copy)]
    finally:
        shutil.rmtree(copy, ignore_errors=True)
        if not args.workdir:
            os.rmdir(workdir)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
