#!/usr/bin/env bash
# Hard benchmark regression gate for the maintenance hot paths.
#
#   tools/run_bench_gate.sh BUILD_DIR
#
# Registered as the ctest test `bench_regression_gate`. Runs the counting
# and higher-order smoke slices and diffs each against the committed
# bench/baselines/ via tools/bench_compare.py --counters. Unlike the
# bench_smoke baseline comparison (which IVM_BENCH_BASELINE_DIR="" can
# switch off for odd machines), this gate has no opt-out: a regression here
# fails ctest.
#
# Covered slices:
#   counting     BM_SetOptimization/4       the per-stratum delta loop
#   higher-order BM_HigherOrder/5/1         the 5-way-join lookup apply
#                BM_Counting/5/1            counting on the same workload
#                                           (pins the HO-vs-counting gap)
#
# What fails the gate is a change in the work itself, which is what the
# gate exists to catch: a lookup turning back into a join, a suppressed
# cascade firing again. Both show as COUNTER DRIFT: the deterministic
# maintenance-work counters (counting.*, ho.*, apply.*_delta_tuples, ...)
# are compared with the baseline per iteration and exactly, on any host.
# Absolute time against the baseline does not decide: the per-slice time
# ratio is printed and marked "slower" or "improved" beyond 75% (override:
# IVM_BENCH_GATE_TOLERANCE), but recorded times move by up to ~2x on a
# shared host while the program is unchanged. One time bar is kept because
# it is relative within a single run: BM_HigherOrder/5/1 must stay at least
# 3x faster than BM_Counting/5/1, the acceptance bar of
# bench/bench_higher_order.cc.
set -u

BUILD_DIR="${1:?usage: run_bench_gate.sh BUILD_DIR}"
BENCH_DIR="$BUILD_DIR/bench"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
BASELINE_DIR="$(dirname "$SCRIPT_DIR")/bench/baselines"
TOLERANCE="${IVM_BENCH_GATE_TOLERANCE:-75}"
OUT_DIR="$(mktemp -d "${TMPDIR:-/tmp}/ivm_bench_gate.XXXXXX")"
trap 'rm -rf "$OUT_DIR"' EXIT
export IVM_BENCH_OUT="$OUT_DIR"

fail=0

# run_slice NAME FILTER
run_slice() {
  local name="$1" filter="$2"
  local bin="$BENCH_DIR/bench_$name"
  if [[ ! -x "$bin" ]]; then
    echo "FAIL: $bin not built" >&2
    fail=1
    return
  fi
  if ! "$bin" --benchmark_min_time=0.01 --benchmark_filter="$filter" \
      >/dev/null 2>"$OUT_DIR/$name.stderr"; then
    echo "FAIL: bench_$name exited non-zero:" >&2
    cat "$OUT_DIR/$name.stderr" >&2
    fail=1
    return
  fi
  local baseline="$BASELINE_DIR/BENCH_$name.json"
  if [[ ! -e "$baseline" ]]; then
    echo "FAIL: no committed baseline $baseline" >&2
    fail=1
    return
  fi
  if ! python3 "$SCRIPT_DIR/bench_compare.py" --counters \
      --tolerance "$TOLERANCE" "$baseline" "$OUT_DIR/BENCH_$name.json"; then
    echo "FAIL: BENCH_$name.json drifted from baseline" >&2
    fail=1
  fi
}

run_slice set_optimization 'BM_SetOptimization/4$'
run_slice higher_order 'BM_HigherOrder/5/1$|BM_Counting/5/1$'

# The higher-order/counting gap, measured within this one run.
if [[ -e "$OUT_DIR/BENCH_higher_order.json" ]] && ! python3 - \
    "$OUT_DIR/BENCH_higher_order.json" <<'PY'
import json
import sys

cpu = {}
with open(sys.argv[1], encoding="utf-8") as f:
    for line in f:
        rec = json.loads(line)
        if rec.get("run_type") == "iteration" and not rec.get("error"):
            cpu[rec["run"]] = rec["cpu_time_ns"]
if "BM_HigherOrder/5/1" not in cpu or "BM_Counting/5/1" not in cpu:
    sys.exit("FAIL: BENCH_higher_order.json lacks the 5-way batch-1 runs")
gap = cpu["BM_Counting/5/1"] / cpu["BM_HigherOrder/5/1"]
print(f"higher-order vs counting, 5-way batch-1: {gap:.1f}x faster "
      f"(bar: 3x)")
sys.exit(0 if gap >= 3 else 1)
PY
then
  echo "FAIL: BM_HigherOrder/5/1 is not 3x faster than BM_Counting/5/1" >&2
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  echo "bench gate: FAILED" >&2
  exit 1
fi
echo "bench gate: OK"
