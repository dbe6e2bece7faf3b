#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/trace.h"

namespace perfbench {

void Tracer::AnchorRegistry(ivm::MetricsRegistry* registry) {
  const uint64_t before = NowNs();
  { ivm::TraceSpan anchor(registry, "perfbench.anchor"); }
  registry_epoch_ns_ = before;
  registry->DrainSpans();
}

void Tracer::DrainRegistry(ivm::MetricsRegistry* registry, const Span& owner) {
  std::vector<ivm::SpanRecord> records = registry->DrainSpans();
  // The buffer holds spans in the order they ended; by start, with the
  // longer first among equal starts, every span follows its parent.
  std::sort(records.begin(), records.end(),
            [](const ivm::SpanRecord& a, const ivm::SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.duration_ns > b.duration_ns;
            });
  std::vector<int64_t> open;  // open[d]: the last span seen at depth d
  for (const ivm::SpanRecord& r : records) {
    Span s;
    s.name = r.name;
    s.id = NextId();
    const size_t depth = static_cast<size_t>(std::max(r.depth, 0));
    s.parent = depth == 0 || depth > open.size() ? owner.id : open[depth - 1];
    s.request = owner.request;
    s.start_ns = registry_epoch_ns_ + r.start_ns;
    s.end_ns = s.start_ns + r.duration_ns;
    s.library = true;
    open.resize(depth);
    open.push_back(s.id);
    spans_.push_back(std::move(s));
  }
}

const std::vector<Span>& Tracer::Finish() {
  // Longer spans first among equal starts, so a parent precedes its children.
  std::sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  return spans_;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"request\":%lld}}%s\n",
                 s.name.c_str(), s.library ? "library" : "benchmark",
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration()) / 1e3,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
