#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for the WAL / checkpoints (inside the checkout).
  std::string work_dir;
  /// Trace file written by a traced run; empty: none.
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics untraced, per-layer metrics traced.
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (tail percentiles with
  /// their sample counts, oracle findings, ...).
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end; never throws.
Outcome RunBenchmark(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
