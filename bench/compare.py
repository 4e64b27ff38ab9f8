#!/usr/bin/env python3
"""Compare two result sets of the benchmark: a parent and a change.

Collect alternating pairs from two checkouts that carry identical bench/
directories, then report:

    python3 bench/compare.py collect PARENT_ROOT CHANGE_ROOT OUT --workload roots-simple
    python3 bench/compare.py report OUT/parent OUT/change

A result set is a directory of captured run outputs (one file per run,
the stdout of bench/run.py).  Runs are paired by workload and seed.  For
every workload and end-to-end metric the report applies these rules:

- a gain needs at least 10 pairs, the change winning at least 9 in 10
  of them (ties count for neither side), and the medians differing by
  more than the parent's own spread (its interquartile distance); a gain
  does not count when the change failed a larger share of its operations
  (runs are bounded by time, so a faster change attempts, and at the same
  failure rate fails, more operations);
- a regression is a change median worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- a metric whose parent spread is wider than its bound is unresolved,
  unless every change run is better than every parent run.

It prints one row per workload.  The run length and the metrics'
bounds come from the BENCHMARK.json next to bench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9
HEADER = re.compile(r"^workload (\S+) seed (-?\d+):")


def load_set(directory: str) -> Dict[Tuple[str, int], dict]:
    """(workload, seed) -> the run's final JSON object."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        head = next((HEADER.match(ln) for ln in lines if HEADER.match(ln)), None)
        if head is None or not lines:
            continue
        runs[(head.group(1), int(head.group(2)))] = json.loads(lines[-1])
    return runs


def judge(parent: List[float], change: List[float], better: str, bound: float,
          more_failures: bool) -> str:
    n = len(parent)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if n >= 2 else (mp, mp, mp)
    worse_by = sign * (mp - mc) / mp if mp else 0.0
    delta = f"{(mc - mp) / mp * 100:+.1f}%" if mp else f"{mc - mp:+.3g}"
    detail = f"({delta},{wins}/{n})"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread = (q3 - q1) / abs(mp) if mp else 0.0
    if (n >= MIN_PAIRS and wins >= WIN_SHARE * n and abs(mc - mp) > q3 - q1
            and sign * (mc - mp) > 0):
        return ("gain-void-more-failures" if more_failures else "gain") + detail
    if worse_by > bound:
        return "REGRESSION" + detail
    if spread > bound and not all_better:
        return "unresolved" + detail
    return ("ok" if n >= MIN_PAIRS else "too-few-pairs") + detail


def failure_rate(runs: List[dict]) -> float:
    """Failed operations as a share of the operations attempted."""
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def report(parent_dir: str, change_dir: str) -> int:
    spec = load_spec()
    parent, change = load_set(parent_dir), load_set(change_dir)
    pairs = parent.keys() & change.keys()
    if not pairs:
        print("no run of the same workload and seed in both result sets", file=sys.stderr)
        return 1
    regressed = False
    for w in sorted({w for w, _ in pairs}):
        seeds = sorted(s for ww, s in pairs if ww == w)
        p_runs = [parent[(w, s)] for s in seeds]
        c_runs = [change[(w, s)] for s in seeds]
        more_failures = failure_rate(c_runs) > failure_rate(p_runs)
        cells = []
        for m in spec["end_to_end"]:
            name = m["name"]
            verdict = judge([r["metrics"][name]["value"] for r in p_runs],
                            [r["metrics"][name]["value"] for r in c_runs],
                            m["better"], m["bound"], more_failures)
            regressed |= verdict.startswith("REGRESSION")
            cells.append(f"{name}={verdict}")
        print(f"{w:<16} pairs={len(seeds):<3} " + " ".join(cells))
    return 2 if regressed else 0


def _digest(root: str) -> str:
    h = hashlib.sha256()
    bench = os.path.join(root, "bench")
    for dirpath, dirnames, filenames in sorted(os.walk(bench)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, bench).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def collect(parent_root: str, change_root: str, out: str, workload: str, pairs: int,
            first_seed: int) -> int:
    if _digest(parent_root) != _digest(change_root):
        print("the two checkouts carry different bench/ code; copy one over the other",
              file=sys.stderr)
        return 1
    seconds = load_spec()["run_seconds"]
    sides = {"parent": parent_root, "change": change_root}
    for label in sides:
        os.makedirs(os.path.join(out, label), exist_ok=True)
    for i in range(pairs):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for label in order:
            root = sides[label]
            argv = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload",
                    workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            res = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
            if res.returncode != 0:
                print(res.stderr, file=sys.stderr)
                return 1
            with open(os.path.join(out, label, f"{workload}-{seed}.txt"), "w") as fh:
                fh.write(res.stdout)
            print(f"pair {i + 1}/{pairs} {label} done", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run alternating parent/change pairs")
    c.add_argument("parent_root")
    c.add_argument("change_root")
    c.add_argument("out")
    c.add_argument("--workload", required=True)
    c.add_argument("--pairs", type=int, default=MIN_PAIRS)
    c.add_argument("--first-seed", type=int, default=1)
    r = sub.add_parser("report", help="judge two result sets")
    r.add_argument("parent_dir")
    r.add_argument("change_dir")
    args = ap.parse_args(argv)
    if args.cmd == "report":
        return report(args.parent_dir, args.change_dir)
    return collect(args.parent_root, args.change_root, args.out, args.workload,
                   args.pairs, args.first_seed)


if __name__ == "__main__":
    sys.exit(main())
