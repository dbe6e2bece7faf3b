#!/usr/bin/env python3
"""Compare two ivm-bench-1 result files (JSON lines, one record per run).

Usage:
  bench_compare.py BASELINE.json CANDIDATE.json [--tolerance PCT]
                   [--metric real_time_ns|cpu_time_ns] [--counters]

Each file is the BENCH_<name>.json a benchmark binary emits (schema
"ivm-bench-1"): one JSON object per line with "run", "real_time_ns",
"cpu_time_ns", and a "counters" map. Runs are matched by their "run" name;
aggregate records (run_type != "iteration") are ignored.

For every matched run the candidate/baseline time ratio is printed
(`--metric`, except that a ".../real_time" run always uses real_time_ns, the
measure the benchmark declared). A run whose time grows by more than
--tolerance percent (default 10) is a REGRESSION and makes the exit status 1;
one that shrinks by more than the tolerance is reported as an improvement.

With --counters the gate is the maintenance work instead of the clock. The
deterministic work counters (see WORK_COUNTER_PREFIXES / WORK_COUNTERS) are
compared per iteration and exactly: the JSON holds totals over the harness's
adaptive iteration count, so a counter matches when
baseline * candidate_iterations == candidate * baseline_iterations. A
mismatch is COUNTER DRIFT: the change altered *what* was computed (a lookup
turned back into a join, a suppressed delta firing again), which shows on
any host. Time ratios are then still printed, marked "slower" or "improved"
at --tolerance, but do not decide the exit status.

Exit status: 0 = pass, 1 = at least one regression (time, or counter drift
with --counters), 2 = usage/IO error (including no matching runs).
"""

import argparse
import json
import sys

# Counters that count maintenance work done per Apply, identical on every
# host and every run. One-time or bench-constant values are left out:
# eval.plan_cache.* (misses happen once per rule shape), obs.spans_dropped,
# storage.* (publication bookkeeping), peak_delta_tuples, rates such as
# reads_per_s, and widths such as batch or readers.
WORK_COUNTER_PREFIXES = ("counting.", "ho.", "dred.", "rc.")
WORK_COUNTERS = frozenset({
    "pf.fragments",
    "exec.tasks_scheduled", "exec.tasks_executed", "exec.partitions",
    "apply.base_delta_tuples", "apply.view_delta_tuples",
    "mutations.committed",
})


def is_work_counter(name):
    return name.startswith(WORK_COUNTER_PREFIXES) or name in WORK_COUNTERS


def load_runs(path):
    runs = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SystemExit(
                        f"error: {path}:{lineno}: not JSON: {e}")
                if rec.get("schema") != "ivm-bench-1":
                    raise SystemExit(
                        f"error: {path}:{lineno}: schema is "
                        f"{rec.get('schema')!r}, expected 'ivm-bench-1'")
                if rec.get("run_type", "iteration") != "iteration":
                    continue
                if rec.get("error"):
                    continue
                runs[rec["run"]] = rec
    except OSError as e:
        raise SystemExit(f"error: cannot read {path}: {e}")
    return runs


def work_drift(base_rec, cand_rec):
    """(counter, baseline per-iteration, candidate per-iteration) for every
    work counter of the baseline run that the candidate does not match.
    Cross-multiplies the integer totals, so no rounding is involved."""
    b_iters = base_rec["iterations"]
    c_iters = cand_rec["iterations"]
    bc = base_rec.get("counters", {})
    cc = cand_rec.get("counters", {})
    drift = []
    for key in sorted(k for k in bc if is_work_counter(k)):
        bv = bc[key]
        cv = cc.get(key)
        if cv is None:
            drift.append((key, bv / b_iters, None))
        elif bv * c_iters != cv * b_iters:
            drift.append((key, bv / b_iters, cv / c_iters))
    return drift


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.3g}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3g}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3g}us"
    return f"{ns:.3g}ns"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--tolerance", type=float, default=10.0, metavar="PCT",
        help="time change percent beyond which a run is marked slower or "
             "improved (default: %(default)s)")
    parser.add_argument(
        "--metric", choices=["real_time_ns", "cpu_time_ns"],
        default="cpu_time_ns",
        help="which per-iteration time to compare for runs not declared "
             "/real_time (default: %(default)s; cpu time is steadier on "
             "shared machines)")
    parser.add_argument(
        "--counters", action="store_true",
        help="gate on the deterministic work counters, compared per "
             "iteration and exactly, instead of on time")
    args = parser.parse_args()
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")

    base = load_runs(args.baseline)
    cand = load_runs(args.candidate)
    common = [name for name in base if name in cand]
    if not common:
        print("error: no runs in common between the two files",
              file=sys.stderr)
        return 2

    slower = []
    improvements = []
    counter_drift = []
    width = max(len(n) for n in common)
    slow_mark = "slower" if args.counters else "REGRESSION"
    print(f"{'run':<{width}}  {'baseline':>10}  {'candidate':>10}  "
          f"{'ratio':>7}")
    for name in common:
        metric = "real_time_ns" if name.endswith("/real_time") else args.metric
        b = base[name][metric]
        c = cand[name][metric]
        ratio = c / b if b else float("inf")
        marker = ""
        if ratio > 1 + args.tolerance / 100:
            marker = f"  {slow_mark}"
            slower.append((name, ratio))
        elif ratio < 1 - args.tolerance / 100:
            marker = "  improved"
            improvements.append((name, ratio))
        print(f"{name:<{width}}  {fmt_ns(b):>10}  {fmt_ns(c):>10}  "
              f"{ratio:>6.2f}x{marker}")
        if args.counters:
            counter_drift += [(name, *d) for d in work_drift(base[name],
                                                              cand[name])]

    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    if only_base:
        print(f"note: {len(only_base)} run(s) only in baseline: "
              f"{', '.join(only_base)}")
    if only_cand:
        print(f"note: {len(only_cand)} run(s) only in candidate: "
              f"{', '.join(only_cand)}")

    for name, key, bv, cv in counter_drift:
        shown = "absent" if cv is None else f"{cv:g}/iter"
        print(f"COUNTER DRIFT: {name} {key}: baseline {bv:g}/iter != "
              f"candidate {shown}", file=sys.stderr)
    if counter_drift:
        print("FAIL: work counters drifted (see above)", file=sys.stderr)
        return 1
    if slower and not args.counters:
        worst = max(slower, key=lambda r: r[1])
        print(f"FAIL: {len(slower)}/{len(common)} run(s) slower than "
              f"baseline by more than {args.tolerance:g}% "
              f"(worst: {worst[0]} at {worst[1]:.2f}x)", file=sys.stderr)
        return 1
    if args.counters:
        summary = f"OK: {len(common)} run(s), work counters match per iteration"
    else:
        summary = f"OK: {len(common)} run(s) within {args.tolerance:g}%"
    if slower:
        summary += f"; {len(slower)} slower than {args.tolerance:g}% (not gated)"
    if improvements:
        best = min(improvements, key=lambda r: r[1])
        summary += (f"; {len(improvements)} improved "
                    f"(best: {best[0]} at {best[1]:.2f}x)")
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
