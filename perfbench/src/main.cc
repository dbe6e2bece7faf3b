// End-to-end benchmark for the incremental view maintenance library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE]
//
// Prints diagnostic lines, then, as the last line of standard output, one
// JSON object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md). Exits 1 when an operation failed or the final
// state differs from a recomputation, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]\n",
               msg);
  return 2;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.work_dir = ".bench_build/perfbench-work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      const long v = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || v < 1 || v > 60) {
        return Usage("--seconds must be 1..60");
      }
      options.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage(("unknown workload " + options.workload).c_str());

  perfbench::Outcome out = perfbench::RunBenchmark(options);
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("# %-32s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) out.correct = false;
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    if (i > 0) std::putchar(',');
    PrintJsonString(m.name);
    std::printf(":{\"value\":%.17g,\"unit\":",
                std::isfinite(m.value) ? m.value : 0.0);
    PrintJsonString(m.unit);
    std::putchar('}');
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
