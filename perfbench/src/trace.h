#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Benchmark-side tracing. The benchmark wraps every public library call in a
// span (name, start, end, parent, request id). The benchmark is
// single-threaded, so the library spans drained from the attached
// MetricsRegistry when a call's span ends all belong to that call: they
// become its children, nested among themselves by their recorded depth. All
// spans stay in memory and are written once, at exit, as a Chrome
// trace-event file.
//
// A null Tracer* disables everything: Scope then reads no clock.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Monotonic nanoseconds (the same clock the library's spans use).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;   // 0: root
  int64_t request = 0;  // spans of one request share it; 0: none
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool library = false;  // drained from the MetricsRegistry
  uint64_t duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NextId() { return ++next_id_; }
  void Add(Span span) { spans_.push_back(std::move(span)); }

  /// Records a zero-length anchor span in `registry` and remembers the
  /// steady-clock time it started at. The registry reports span starts
  /// relative to the first span it ever recorded, so this must be called
  /// before any other span reaches a fresh registry.
  void AnchorRegistry(ivm::MetricsRegistry* registry);

  /// Moves the registry's completed spans into the timeline as descendants
  /// of `owner`: depth-0 spans become its children, deeper ones children of
  /// the enclosing library span.
  void DrainRegistry(ivm::MetricsRegistry* registry, const Span& owner);

  /// All spans, sorted by start.
  const std::vector<Span>& Finish();

  /// Writes the Chrome trace-event JSON file. Call after Finish().
  bool Write(const std::string& path) const;

 private:
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
  uint64_t registry_epoch_ns_ = 0;
};

/// RAII benchmark span around one public call. When `registry` is given, the
/// library spans the call recorded are drained into the trace as its
/// descendants when the span ends.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name,
        ivm::MetricsRegistry* registry = nullptr, int64_t parent = 0,
        int64_t request = 0)
      : tracer_(tracer), registry_(registry) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.id = tracer_->NextId();
    span_.parent = parent;
    span_.request = request;
    span_.start_ns = NowNs();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { End(); }

  void End() {
    if (tracer_ == nullptr) return;
    span_.end_ns = NowNs();
    tracer_->Add(span_);
    if (registry_ != nullptr) tracer_->DrainRegistry(registry_, span_);
    tracer_ = nullptr;
  }
  int64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  ivm::MetricsRegistry* registry_;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
