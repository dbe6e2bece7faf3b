#!/usr/bin/env bash
# Bench smoke test: run one tiny benchmark slice per maintenance strategy,
# then validate the emitted BENCH_<name>.json files against the ivm-bench-1
# schema, requiring the per-phase counters the observability layer promises:
#   counting  -> counting.deltas_emitted, counting.suppressed
#   DRed      -> dred.overdeleted, dred.rederived, dred.inserted
#   PF        -> pf.fragments (plus the wrapped core's dred.* counters)
#   rec.count -> rc.worklist_steps, rc.deltas_emitted
#
# Usage: run_bench_smoke.sh BUILD_DIR
# Registered as the ctest test `bench_smoke` (see tests/CMakeLists.txt).
#
# Regression gate: every produced BENCH_<name>.json with a counterpart in
# the baseline directory is diffed by tools/bench_compare.py --counters,
# which fails on COUNTER DRIFT: a deterministic maintenance-work counter
# (counting.*, dred.*, rc.*, pf.fragments, exec.tasks_*, ...) that differs
# from the baseline per iteration. Work per iteration is the same on every
# host, so the gate catches a change in what maintenance computes. Time is
# reported, not gated: each ratio is printed and marked "slower" or
# "improved" beyond the tolerance, because recorded times of these ~10ms
# slices move by up to ~2x on a shared host while the program is unchanged.
# The gate is ON by default against the committed bench/baselines/; knobs:
#
#   IVM_BENCH_BASELINE_DIR   baseline directory. Set to the empty string to
#                            disable the comparison entirely.
#   IVM_BENCH_TOLERANCE      time change in percent beyond which a ratio is
#                            marked (default 60). Full-length timing
#                            comparisons live in docs/performance.md.
set -u

BUILD_DIR="${1:?usage: run_bench_smoke.sh BUILD_DIR}"
BENCH_DIR="$BUILD_DIR/bench"
CHECK="$BUILD_DIR/tools/bench_json_check"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
OUT_DIR="$(mktemp -d "${TMPDIR:-/tmp}/ivm_bench_smoke.XXXXXX")"
trap 'rm -rf "$OUT_DIR"' EXIT
export IVM_BENCH_OUT="$OUT_DIR"

fail=0

# run_one NAME FILTER -- required counters...
run_one() {
  local name="$1" filter="$2"
  shift 2
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
  local requires=()
  local counter
  for counter in "$@"; do
    requires+=(--require "$counter")
  done
  if ! "$CHECK" "${requires[@]}" "$OUT_DIR/BENCH_$name.json"; then
    echo "FAIL: BENCH_$name.json did not validate" >&2
    fail=1
  fi
}

# Counting (+ the boxed statement (2) suppression counter, Example 5.1).
run_one set_optimization 'BM_SetOptimization/4$' \
  counting.deltas_emitted counting.suppressed counting.tuples_scanned

# DRed: all three phases of the delete/rederive algorithm (Section 7).
run_one dred_vs_recompute 'BM_SparseDag_DRed/4$' \
  dred.overdeleted dred.rederived dred.inserted peak_delta_tuples

# PF: fragment counter from the propagation/filtration baseline.
run_one dred_vs_pf 'BM_TC_PF/4$' pf.fragments

# Recursive counting: worklist steps from the delta-triangle propagation.
run_one recursive_counting 'BM_DeleteRecursiveCounting/4$' \
  rc.worklist_steps rc.deltas_emitted

# Parallel executor: a 2-thread slice must record the scheduling and
# partitioning counters (exec.partitions requires the 256-tuple batch to
# clear min_partition_size, which bench_parallel_scaling sets to 16).
run_one parallel_scaling 'BM_Counting/2$' \
  exec.tasks_scheduled exec.tasks_executed exec.partitions threads

# Snapshot read path: a 4-reader slice (no writer — keeps the smoke slice
# deterministic) must record its read-throughput counters. The storage.*
# sharing/reclamation counters are asserted in snapshot_stress_test instead:
# they only register once a post-seed publication happens, which the
# writer-free smoke slice deliberately avoids.
run_one snapshot_read 'BM_SnapshotRead/4/real_time$' \
  reads readers reads_per_s

# The metrics on/off pair used for the zero-overhead acceptance check.
run_one counting_overhead 'BM_ApplyWithMetrics/100/400$' \
  apply.base_delta_tuples peak_delta_tuples

# Higher-order maintenance: the 5-way-join batch-1 slice (the headline
# lookup-vs-join case, docs/higher_order.md) plus counting on the same
# workload, so the baseline pins the work of both (bench_regression_gate
# also checks the time gap between them).
run_one higher_order 'BM_HigherOrder/5/1$|BM_Counting/5/1$' \
  ho.lookups ho.aux_delta_tuples ho.deltas_emitted peak_delta_tuples

# Baseline comparison (see header comment): on by default against the
# committed bench/baselines/; IVM_BENCH_BASELINE_DIR="" disables.
REPO_DIR="$(dirname "$SCRIPT_DIR")"
IVM_BENCH_BASELINE_DIR="${IVM_BENCH_BASELINE_DIR-$REPO_DIR/bench/baselines}"
if [[ -n "${IVM_BENCH_BASELINE_DIR}" ]]; then
  tolerance="${IVM_BENCH_TOLERANCE:-60}"
  for produced in "$OUT_DIR"/BENCH_*.json; do
    [[ -e "$produced" ]] || continue
    baseline="$IVM_BENCH_BASELINE_DIR/$(basename "$produced")"
    [[ -e "$baseline" ]] || continue
    if ! python3 "$SCRIPT_DIR/bench_compare.py" --counters \
        --tolerance "$tolerance" "$baseline" "$produced"; then
      echo "FAIL: $(basename "$produced") drifted from baseline" >&2
      fail=1
    fi
  done
fi

if [[ "$fail" -ne 0 ]]; then
  echo "bench smoke: FAILED" >&2
  exit 1
fi
echo "bench smoke: OK"
