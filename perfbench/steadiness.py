#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

usage: python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
                                       [--sets 2] [--first-seed 1]
                                       [--out results.json]

Run from the root of a checkout. Runs each workload --sets times --runs times
(every run with a new seed, untraced, --seconds from BENCHMARK.json) and
reports, per end-to-end metric and set, the median, the quartiles and the
spread (Q3 - Q1) / median, then each later set's median against the first
set's, signed so that positive is worse. A metric passes when every set's
spread is within its bound and no set's median differs from the first set's
by more than the bound in either direction: all sets run the same code, so a
set that reads better is as much noise as one that reads worse. setup_s is
the one exception to the spread test: it is wall-clock set-up time, not
reference time (README.md), so it carries the host's drift between runs, and
only its set-to-set difference is checked. The target while tuning is a
spread below a third of the bound. Exits 1 when a run fails or a metric does
not pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d):\n%s" % (
            workload, seed, proc.returncode, proc.stdout))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: incorrect result" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    raw = {}
    ok = True
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                seed += 1
                print("  %s set %d run %d done" % (workload, s + 1, len(runs)),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        raw[workload] = sets

        print("\n%s (%d sets x %d runs)" % (workload, args.sets, args.runs))
        print("%-18s %5s %12s %12s %12s %8s %8s %6s  %s" % (
            "metric", "set", "median", "q1", "q3", "spread", "vs set1",
            "bound", "verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "lower" else -1
            first = None
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summarize([r[name] for r in runs])
                if first is None:
                    first = med
                diff = sign * (med - first) / first if first else 0.0
                spread_ok = name == "setup_s" or spread <= bound
                ok_here = spread_ok and abs(diff) <= bound
                verdict = "ok" if ok_here else "FAIL"
                if ok_here and name != "setup_s" and spread > bound / 3:
                    verdict = "ok (spread above bound/3)"
                ok = ok and verdict != "FAIL"
                print("%-18s %5d %12.4f %12.4f %12.4f %8.3f %+8.3f %6.2f  %s" % (
                    name, s + 1, med, q1, q3, spread, diff, bound, verdict))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print("steadiness: %s" % e, file=sys.stderr)
        sys.exit(1)
