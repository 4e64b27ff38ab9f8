#!/usr/bin/env python3
"""Run one workload of the dvfield benchmark and print its metrics.

    python3 bench/run.py --workload padic-exp-log --seed 1 --trace 0

Run from the root of a checkout; the library is imported from its src/.
Each workload is a closed loop: one caller in this single-threaded
process sends the next request only after the previous answer came back
(for cli-commands, one child process per command).  The loop runs whole
rounds of a fixed template mix until --seconds of wall time have passed
(default: run_seconds of BENCHMARK.json, the length whose spread the
metrics' bounds were checked against),
and every answer is checked by an independent oracle (bench/oracles.py)
at the precision it claims.

Every time reported is CPU time: the CPU seconds of the calling thread
plus those of the child processes it waited for.  Wall-clock time on a
shared machine also counts the time other tenants held the CPU, which
swung by a factor of two between one-second samples on the 2-vCPU
machine this was written on.  End-to-end times are further calibrated
against a frozen reference task timed between operations
(bench/calibrate.py); per-layer times are raw CPU time.

With --trace 0 the last line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the
per-layer metrics instead, from a run whose second half wraps each
library layer in spans (bench/tracer.py).  Lines before it are a
readable report: every metric with its unit, fail_frac and wrong_frac,
and a breakdown by kind of operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from calibrate import Calibration

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
IMPORT_PROBES = 3


def load_library() -> None:
    """Import dvfield from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dvfield", "__init__.py")):
        sys.exit(f"bench: no dvfield package under {SRC}")
    sys.path[:0] = [SRC, BENCH]
    import dvfield
    if not os.path.abspath(dvfield.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: dvfield was imported from {dvfield.__file__}, not {SRC}")


@dataclass
class Record:
    """What a run keeps of one operation; the inputs themselves are
    dropped so that memory does not grow with the number of rounds."""

    kind: str
    tier: int
    top: bool
    latency: float
    outcome: str        # "ok", or why the outcome differs from the expected one


def cpu_seconds() -> float:
    """CPU time of this thread plus that of every child waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + ru.ru_utime + ru.ru_stime


def run_loop(wl, first_round, seconds: float, records: List[Record],
             recorder=None) -> Tuple[float, Calibration]:
    """Run whole rounds until `seconds` of wall time have passed and
    calibrate the latencies recorded; returns the wall time taken and
    the calibration."""
    calib = Calibration()
    first = len(records)
    t_start = time.perf_counter()
    ops = first_round
    while True:
        for op in ops:
            if recorder is not None:
                recorder.op_id = len(records)
            t0 = cpu_seconds()
            try:
                value, exc = op.call(), None
            except Exception as e:          # every failure is an outcome to count
                value, exc = None, e
            latency = cpu_seconds() - t0
            if recorder is not None:
                recorder.op_id = -1
            records.append(Record(op.kind, op.tier, op.top, latency, op.outcome(value, exc)))
            calib.tick()
        if time.perf_counter() - t_start >= seconds or (recorder is not None and recorder.full):
            break
        ops = wl.make_round()
    wall = time.perf_counter() - t_start
    for r in records[first:]:
        r.latency *= calib.factor
    return wall, calib


def setup_seconds(workload: str, seed: int) -> float:
    """Median CPU time of fresh processes that start, import dvfield and
    build the first round of inputs, then exit."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = cpu_seconds()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(cpu_seconds() - t0)
    return statistics.median(times)


def import_seconds() -> float:
    """Median CPU time of `import dvfield.cli` in a fresh interpreter."""
    code = ("import time; t = time.process_time(); import dvfield.cli; "
            "print(time.process_time() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    values = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        values.append(float(out))
    return statistics.median(values)


def ops_per_s(records: List[Record]) -> float:
    return len(records) / sum(r.latency for r in records)


def end_to_end(records: List[Record], setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    ms = [r.latency * 1e3 for r in records]
    top = [r.latency * 1e3 for r in records if r.top]
    n = len(records)
    failed = sum(r.outcome != "ok" for r in records)
    wrong = sum(r.outcome == "wrong" for r in records)
    return {
        "ops_per_s": ops_per_s(records),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
        "hi_prec_p50_ms": statistics.median(top),
        "ok_frac": 1 - failed / n,
        "agree_frac": 1 - wrong / n,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(rec, records: List[Record], untraced_ops_per_s: float,
              traced_ops_per_s: float, kernel: Dict[str, float]) -> Dict[str, float]:
    s = rec.summary()
    empty = {"calls": 0, "raised": 0, "self_s": 0.0, "spans": []}
    get = lambda name: s.get(name, empty)  # noqa: E731
    out: Dict[str, float] = dict(kernel)
    for k in ("add", "mul", "inverse", "from_rational"):
        out[f"localfield.{k}.calls"] = get(f"localfield.{k}")["calls"]
        out[f"localfield.{k}.self_s"] = get(f"localfield.{k}")["self_s"]
    out["localfield.truncate.calls"] = get("localfield.truncate")["calls"]

    ev = get("series.eval")
    out["series.eval.calls"] = ev["calls"]
    out["series.eval.self_s"] = ev["self_s"]
    out["series.eval.useful_ratio"] = (1 - ev["raised"] / ev["calls"]) if ev["calls"] else 0.0
    out["series.materialized.from_rational_calls"] = sum(
        rec.parent_is(i, "series.materialized") for i in get("localfield.from_rational")["spans"])
    out["series.derivative.calls"] = get("series.derivative")["calls"]
    out["series.deflate.self_s"] = get("series.deflate")["self_s"]
    out["series.recenter.self_s"] = get("series.recenter")["self_s"]
    out["series.sup_exponent.calls"] = get("series.sup_exponent")["calls"]

    hs = get("rootfind.hensel_solve")
    out["rootfind.hensel_solve.calls"] = hs["calls"]
    out["rootfind.hensel_solve.self_s"] = hs["self_s"]
    out["rootfind.fixed_point_solve.self_s"] = get("rootfind.fixed_point_solve")["self_s"]
    steps = [v for op, v in rec.observed.get("rootfind.hensel_solve", []) if op >= 0]
    out["rootfind.newton_steps_mean"] = statistics.fmean(steps) if steps else 0.0
    out["rootfind.enumerate_roots.self_s"] = get("rootfind.enumerate_roots")["self_s"]
    found = sum(v for op, v in rec.observed.get("rootfind.enumerate_roots", []) if op >= 0)
    inner = sum(1 for i in hs["spans"] if rec.has_ancestor(i, "rootfind.enumerate_roots"))
    out["rootfind.enumerate_roots.roots_per_hensel_call"] = found / inner if inner else 0.0
    out["rootfind.strassmann_bound.calls"] = get("rootfind.strassmann_bound")["calls"]
    out["rootfind.check_hypotheses.calls"] = get("rootfind.check_hypotheses")["calls"]

    for fn in ("exp_eval", "log_solve"):
        st = get(f"special.{fn}")
        out[f"special.{fn}.self_s"] = st["self_s"]
        out[f"special.{fn}.growth"] = _growth(rec, st["spans"], records)
    out["special.exp_series.calls"] = get("special.exp_series")["calls"]

    out["measure.ball_relation.calls"] = get("measure.ball_relation")["calls"]
    for fn in ("ball_relation", "haar_union_measure", "maximal_disjointify",
               "image_measure", "digit_set_analysis"):
        out[f"measure.{fn}.self_s"] = get(f"measure.{fn}")["self_s"]

    for fn in ("parse_element", "parse_series", "render_element"):
        out[f"textio.{fn}.self_s"] = get(f"textio.{fn}")["self_s"]
    out["cli.run.self_s"] = get("cli.run")["self_s"]
    out["cli.import_s"] = import_seconds()
    out["valuation.factorial_valuation.calls"] = get("valuation.factorial_valuation")["calls"]
    out["trace.overhead_ratio"] = traced_ops_per_s / untraced_ops_per_s
    return out


def _growth(rec, spans: List[int], records: List[Record]) -> float:
    """Log-log slope of the median inclusive span time of the calls that
    returned against the operation's precision tier; 0 when fewer than
    two tiers ran."""
    by_tier: Dict[int, List[float]] = {}
    for i in spans:
        if rec.raised[i]:
            continue
        tier = records[rec.op[i]].tier
        by_tier.setdefault(tier, []).append(rec.end[i] - rec.start[i])
    tiers = sorted(t for t in by_tier if t > 0)
    if len(tiers) < 2:
        return 0.0
    from kernels import slope
    return slope([float(t) for t in tiers], [statistics.median(by_tier[t]) for t in tiers])


def report(workload: str, seed: int, records: List[Record], wall: float,
           calib: Calibration, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    n = len(records)
    failed = sum(r.outcome != "ok" for r in records)
    wrong = sum(r.outcome == "wrong" for r in records)
    print(f"workload {workload} seed {seed}: {n} ops in {wall:.1f} s, closed loop, "
          f"1 caller")
    print(f"  calibration factor {calib.factor:.4f} from {len(calib.samples)} reference "
          f"samples (times below are CPU times multiplied by it)")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    print(f"  {'fail_frac':<52} {failed / n:>14.6g} share ({failed} of {n})")
    print(f"  {'wrong_frac':<52} {wrong / n:>14.6g} share ({wrong} of {n})")
    groups: Dict[tuple, List[Record]] = {}
    for r in records:
        groups.setdefault((r.kind, r.tier), []).append(r)
    print(f"  {'kind':<22}{'tier':>6}{'ops':>6}{'p50 ms':>11}  outcomes")
    for (kind, tier), rs in sorted(groups.items()):
        counts: Dict[str, int] = {}
        for r in rs:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        p50 = statistics.median(r.latency for r in rs) * 1e3
        outcomes = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"  {kind:<22}{tier:>6}{len(rs):>6}{p50:>11.3f}  {outcomes}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    cli = args.workload == workloads.CliCommands.name
    wl = workloads.make_workload(args.workload, args.seed, ROOT, in_process=bool(args.trace))
    first = wl.make_round()
    if args.setup_only:
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if cli and not args.trace:
        # compile the package's bytecode once, outside the measurement
        subprocess.run([sys.executable, "-m", "dvfield.cli", "val", "-p", "2", "4"],
                       cwd=ROOT, env=wl.env, check=True, stdout=subprocess.DEVNULL)

    records: List[Record] = []
    if not args.trace:
        wall, calib = run_loop(wl, first, seconds, records)
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        setup_s = setup_seconds(args.workload, args.seed) * calib.factor
        metrics = end_to_end(records, setup_s, peak_rss_mb)
        names = spec["end_to_end"]
    else:
        import kernels
        import tracer
        wall, calib = run_loop(wl, first, seconds / 2, records)
        untraced = ops_per_s(records)
        kernel = kernels.sweep(args.seed)
        rec = tracer.SpanRecorder()
        observers = {"rootfind.hensel_solve": lambda cert: len(cert.b_trace),
                     "rootfind.enumerate_roots": len}
        uninstall = tracer.install(rec, observers)
        first_traced = len(records)
        try:
            traced_wall, _ = run_loop(wl, wl.make_round(), seconds / 2, records, rec)
            wall += traced_wall
        finally:
            uninstall()
        traced = ops_per_s(records[first_traced:])
        metrics = per_layer(rec, records, untraced, traced, kernel)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"traced {len(records) - first_traced} ops, {len(rec.start)} spans, "
              f"peak RSS {peak_mb:.0f} MB")
        names = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in names}
    metrics = {m["name"]: float(metrics[m["name"]]) for m in names}
    report(args.workload, args.seed, records, wall, calib, metrics, units)
    failed = sum(r.outcome != "ok" for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
