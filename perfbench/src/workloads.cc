#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>

#include "analysis/advisor.h"
#include "core/view_manager.h"
#include "datalog/parser.h"
#include "gen.h"
#include "sql/sql_translator.h"
#include "trace.h"

namespace perfbench {
namespace {

using ivm::ChangeSet;
using ivm::Database;
using ivm::MetricsRegistry;
using ivm::Program;
using ivm::Relation;
using ivm::Result;
using ivm::Snapshot;
using ivm::Strategy;
using ivm::ViewManager;

// ---------------------------------------------------------------------------
// Workload sizing. Every count below is fixed per workload, so both sides of
// a comparison run the same number of batches and reads and their
// percentiles sit on the same ranks.

/// setup_s is the median of this many setups; half run before the timed
/// phase, half after it.
constexpr int kSetups = 10;
/// Untimed batches before the timed phase: plan cache and indexes populated.
constexpr int kWarmupBatches = 5;
/// Reads in one probe burst (see Spec::probe_every).
constexpr int kReadsPerProbe = 9;

struct Spec {
  double batches_per_second = 0;  // timed batches = seconds * this
  // Durability: WAL fsync on every commit, Checkpoint() every
  // `checkpoint_every` commits; 0 = off.
  int checkpoint_every = 0;
  // After every `probe_every`-th timed batch the writer issues
  // kReadsPerProbe reads on the snapshot it just published. The first read
  // of a view after a commit is cold; spacing the bursts keeps them to about
  // 45 a run, so the read tail sits inside the cold reads' distribution
  // rather than at its extreme.
  int probe_every = 0;
};

// ---------------------------------------------------------------------------
// Input sources: the generator plus the workload's view definitions and
// read mix.

/// One read request: a query against one pinned snapshot.
struct Read {
  std::string query;
};

class Source {
 public:
  virtual ~Source() = default;
  /// Translates or parses the view definitions (timed as setup).
  virtual Result<Program> BuildProgram(Tracer* tracer) = 0;
  virtual void FillBase(Database* db) const = 0;
  virtual ChangeSet NextBatch() = 0;
  /// The `i`-th read of a probe burst.
  virtual Read NextRead(Rng* rng, int i) const = 0;
  /// Checks an answer against what the view definitions guarantee.
  virtual bool CheckRead(const Read& read, const Relation& answer) const = 0;
  /// What kAuto must pick for this program.
  virtual Strategy expected_strategy() const = 0;
};

class TpchSource : public Source {
 public:
  TpchSource(uint64_t seed, TpchScale scale) : gen_(seed, scale) {}

  Result<Program> BuildProgram(Tracer* tracer) override {
    Scope span(tracer, "setup.translate");
    ivm::SqlTranslator translator;
    IVM_RETURN_IF_ERROR(translator.AddScript(TpchGen::SchemaSql()));
    return translator.Build();
  }
  void FillBase(Database* db) const override { gen_.FillBase(db); }
  ChangeSet NextBatch() override { return gen_.NextBatch(); }
  /// A customer's revenue (point lookup), a brand's revenue (group lookup)
  /// and a customer's urgent lines, in turn, so every burst holds the same
  /// mix and its first read of each view is the one that pays for the view's
  /// republished extent.
  Read NextRead(Rng* rng, int i) const override {
    switch (i % 3) {
      case 0:
        return Read{"cust_revenue(" + std::to_string(gen_.RandomCustomer(rng)) +
                    ", R)"};
      case 1:
        return Read{"brand_revenue(\"" + gen_.RandomBrand(rng) + "\", R)"};
      default:
        return Read{"urgent_lines(O, L, " +
                    std::to_string(gen_.RandomCustomer(rng)) + ", P, Q)"};
    }
  }

  bool CheckRead(const Read& read, const Relation& answer) const override {
    if (read.query.rfind("urgent_lines", 0) != 0) {
      return answer.size() <= 1;  // one row per group
    }
    if (answer.arity() != 4) return false;
    for (const ivm::Tuple& t : answer.SortedTuples()) {
      if (!t[3].is_int() || t[3].int_value() < 40) return false;
    }
    return true;
  }

  Strategy expected_strategy() const override { return Strategy::kCounting; }

 private:
  TpchGen gen_;
};

class GraphSource : public Source {
 public:
  GraphSource(uint64_t seed, GraphScale scale)
      : scale_(scale), gen_(seed, scale) {}

  Result<Program> BuildProgram(Tracer* tracer) override {
    Scope span(tracer, "setup.parse");
    return ivm::ParseProgram(GraphGen::ProgramText());
  }
  void FillBase(Database* db) const override { gen_.FillBase(db); }
  ChangeSet NextBatch() override { return gen_.NextBatch(); }
  Read NextRead(Rng* rng, int /*i*/) const override {
    const uint64_t nodes =
        static_cast<uint64_t>(scale_.communities * scale_.nodes);
    return Read{"reach(" + std::to_string(rng->Below(nodes)) + ", Y)"};
  }

  bool CheckRead(const Read& read, const Relation& answer) const override {
    // Communities share no edges, so reach never leaves one.
    const int64_t from = std::stoll(read.query.substr(6));
    for (const ivm::Tuple& t : answer.SortedTuples()) {
      if (!t[0].is_int() ||
          t[0].int_value() / scale_.nodes != from / scale_.nodes) {
        return false;
      }
    }
    return true;
  }

  Strategy expected_strategy() const override { return Strategy::kDRed; }

 private:
  GraphScale scale_;
  GraphGen gen_;
};

// ---------------------------------------------------------------------------
// Statistics helpers.

/// Nearest-rank percentile of `v` (sorted in place).
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double exact = p / 100.0 * static_cast<double>(v->size());
  size_t rank = static_cast<size_t>(std::ceil(exact));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(&v, 50); }

/// The highest percentile (to 0.1) with at least ten samples beyond it; the
/// median when there are fewer than twenty samples.
double TailPercentile(size_t samples) {
  if (samples < 20) return 50;
  return std::floor(1000.0 * (1.0 - 10.0 / static_cast<double>(samples))) / 10.0;
}

std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A fixed memory-bound kernel, timed after every timed batch: random
/// read-modify-writes over an 8 MiB table, pulled back into cache by an
/// untimed pass first so the library's last operation does not change its
/// cost. Shared hosts drift by 15-30% in memory-system speed over tens of
/// seconds, and the library's operations drift with them; one pass of this
/// kernel is the benchmark's unit of time, the reference millisecond, so
/// that end-to-end latencies are comparable across runs (README.md).
class ReferenceKernel {
 public:
  /// Milliseconds one timed pass took.
  double TimeMs() {
    Pass();
    const uint64_t t0 = NowNs();
    Pass();
    return static_cast<double>(NowNs() - t0) / 1e6;
  }

 private:
  static constexpr size_t kSlots = size_t{1} << 20;
  static constexpr int kSteps = 80000;

  void Pass() {
    uint64_t x = 0x9e3779b97f4a7c15ULL;  // the same walk every pass
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      uint64_t& slot = table_[x & (kSlots - 1)];
      slot += x;
      sink_ += table_[(slot >> 11) & (kSlots - 1)];
    }
  }

  std::vector<uint64_t> table_ = std::vector<uint64_t>(kSlots);
  uint64_t sink_ = 0;
};

/// The local length of a reference millisecond at each timed batch: the
/// median of the kernel times within four batches either side.
std::vector<double> LocalRefMs(const std::vector<double>& kernel_ms) {
  constexpr size_t kHalf = 4;
  std::vector<double> out;
  for (size_t i = 0; i < kernel_ms.size(); ++i) {
    const size_t lo = i < kHalf ? 0 : i - kHalf;
    const size_t hi = std::min(kernel_ms.size(), i + kHalf + 1);
    out.push_back(Median(std::vector<double>(kernel_ms.begin() + lo,
                                             kernel_ms.begin() + hi)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// One manager, set up from the workload's sources.

struct Managed {
  // Declared before the manager: the manager holds a raw pointer to it.
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<ViewManager> vm;
  std::string durable_dir;
};

/// Counter values at the start and end of the timed phase.
struct CounterWindow {
  std::map<std::string, uint64_t> start;
  std::map<std::string, uint64_t> end;

  static std::map<std::string, uint64_t> Capture(const MetricsRegistry& r) {
    std::map<std::string, uint64_t> out;
    r.ForEachCounter([&](const std::string& name, uint64_t v) { out[name] = v; });
    return out;
  }
  double Delta(const std::string& name) const {
    auto e = end.find(name);
    auto s = start.find(name);
    return static_cast<double>((e == end.end() ? 0 : e->second) -
                               (s == start.end() ? 0 : s->second));
  }
};

/// Which extents a commit republished: compares each relation's
/// Snapshot::Get pointer with the previous epoch's. An unchanged extent is
/// shared by the two versions; a changed one was copied. (The previous
/// version stays alive until the next one is published, so a fresh copy
/// can never reuse an old extent's address.)
class PublicationProbe {
 public:
  void Observe(const ViewManager& vm, bool count) {
    Snapshot snap = vm.snapshot();
    for (const std::string& name : snap.RelationNames()) {
      const Relation* rel = *snap.Get(name);
      auto it = last_.find(name);
      const bool shared = it != last_.end() && it->second == rel;
      if (count) {
        ++(shared ? shared_ : copied_extents_);
        if (!shared) copied_tuples_ += rel->size();
      }
      last_[name] = rel;
    }
    if (count) ++commits_;
  }
  double copied_tuples_per_commit() const {
    return commits_ == 0 ? 0 : static_cast<double>(copied_tuples_) / commits_;
  }
  double shared_ratio() const {
    const uint64_t total = shared_ + copied_extents_;
    return total == 0 ? 0 : static_cast<double>(shared_) / total;
  }

 private:
  std::map<std::string, const Relation*> last_;
  uint64_t commits_ = 0;
  uint64_t shared_ = 0;
  uint64_t copied_extents_ = 0;
  uint64_t copied_tuples_ = 0;
};

struct ReadSample {
  size_t batch = 0;  // index of the timed batch the read followed
  double latency_us = 0;
  double pin_us = 0;
  double query_us = 0;
  bool cold = false;
};

/// Everything one pass of a workload measured.
struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> apply_ms;
  std::vector<double> kernel_ms;  // ReferenceKernel, after each timed batch
  std::vector<ReadSample> reads;
  uint64_t base_tuples = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool oracle_ok = false;
  double peak_rss_mib = 0;
  // Traced pass only.
  std::vector<double> shadow_apply_ms;  // the untraced shadow, same batches
  uint64_t spans_dropped = 0;
  CounterWindow counters;
  PublicationProbe publication;
  std::vector<std::string> notes;
};

class Runner {
 public:
  Runner(const RunOptions& options, const Spec& spec,
         std::unique_ptr<Source> source, Tracer* tracer)
      : options_(options),
        spec_(spec),
        source_(std::move(source)),
        tracer_(tracer),
        probe_rng_(Mix(options.seed ^ 0x7265616400000000ULL)) {}

  RunResult Run();

 private:
  /// One timed setup: translate/parse, Create, Initialize and, when durable,
  /// EnableDurability. Returns the setup time in seconds, or a negative
  /// value on failure (recorded in the result).
  double SetUpOnce(const Database& base, const std::string& tag,
                   Tracer* tracer, Managed* out);
  /// `count` setups from the generator's current base state; the last
  /// manager stays in `managed_`. False on failure.
  bool SetUpRound(int count);
  void ApplyClosedLoop(int batches, bool timed);
  /// Applies `batch` to `m`; returns the latency in ms, or a negative value
  /// on failure (recorded in the result).
  double ApplyTo(Managed* m, ChangeSet batch, Tracer* tracer,
                 const char* span_name);
  /// One read on `managed_`: pin, query, check, release.
  void DoRead(const Read& read);
  /// Checkpoint() as an operation of its own (timed in the trace only).
  void CheckpointNow();
  /// Frees `m`'s manager, keeping its dropped-span count.
  void Discard(Managed* m);
  void CheckFinalState(const Managed& m);
  void Fail(const std::string& what) {
    ++result_.failed;
    if (result_.notes.size() < 20) result_.notes.push_back("error: " + what);
  }

  const RunOptions& options_;
  Spec spec_;
  std::unique_ptr<Source> source_;
  Tracer* tracer_;
  Managed managed_;
  // Traced pass only: an untraced twin of `managed_` fed the same batches,
  // so the tracing overhead is measured in the same stretch of time.
  Managed shadow_;
  RunResult result_;
  int64_t request_ = 0;
  Rng probe_rng_;
  ReferenceKernel kernel_;
  // The epoch the last read ran on: the first read on a new epoch is cold
  // (it rebuilds indexes on the republished extents).
  uint64_t read_epoch_ = UINT64_MAX;
};

double Runner::SetUpOnce(const Database& base, const std::string& tag,
                         Tracer* tracer, Managed* out) {
  if (tracer != nullptr) {
    out->registry = std::make_unique<MetricsRegistry>();
    tracer->AnchorRegistry(out->registry.get());
  }
  MetricsRegistry* registry = out->registry.get();
  const uint64_t t0 = NowNs();
  Result<Program> program = source_->BuildProgram(tracer);
  const uint64_t t1 = NowNs();
  if (!program.ok()) {
    Fail("program: " + program.status().ToString());
    return -1;
  }
  {
    // Advice is what kAuto follows inside Create; timed as its own layer
    // and kept out of setup_s.
    Scope span(tracer, "setup.advise");
    ivm::StrategyAdvice advice = ivm::AdviseStrategy(*program);
    span.End();
    if (advice.recommended != source_->expected_strategy()) {
      Fail("advisor recommended an unexpected strategy");
      return -1;
    }
  }
  ViewManager::Options vm_options;
  vm_options.strategy = Strategy::kAuto;
  vm_options.metrics = registry;
  const uint64_t t2 = NowNs();
  {
    Scope span(tracer, "setup.create", registry);
    auto vm = ViewManager::Create(std::move(*program), vm_options);
    if (!vm.ok()) {
      Fail("create: " + vm.status().ToString());
      return -1;
    }
    out->vm = std::move(*vm);
  }
  {
    Scope span(tracer, "setup.initialize", registry);
    ivm::Status s = out->vm->Initialize(base);
    if (!s.ok()) {
      Fail("initialize: " + s.ToString());
      return -1;
    }
  }
  if (spec_.checkpoint_every > 0) {
    out->durable_dir = options_.work_dir + "/durable-" + tag;
    std::filesystem::remove_all(out->durable_dir);
    Scope span(tracer, "setup.enable_durability", registry);
    ivm::Status s = out->vm->EnableDurability(out->durable_dir);
    if (!s.ok()) {
      Fail("enable durability: " + s.ToString());
      return -1;
    }
  }
  const uint64_t t3 = NowNs();
  if (out->vm->strategy() != source_->expected_strategy()) {
    Fail("kAuto picked an unexpected strategy");
    return -1;
  }
  return static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9;
}

bool Runner::SetUpRound(int count) {
  Database base;
  source_->FillBase(&base);
  for (int i = 0; i < count; ++i) {
    Discard(&managed_);  // the previous setup's manager is freed first
    const double s = SetUpOnce(base, "main", tracer_, &managed_);
    if (s < 0) return false;
    result_.setup_s.push_back(s);
  }
  return true;
}

double Runner::ApplyTo(Managed* m, ChangeSet batch, Tracer* tracer,
                       const char* span_name) {
  ++result_.attempted;
  const uint64_t t0 = NowNs();
  Scope span(tracer, span_name, m->registry.get(), 0, ++request_);
  Result<ChangeSet> out = m->vm->Apply(std::move(batch));
  const uint64_t t1 = NowNs();
  span.End();
  if (!out.ok()) {
    Fail("apply: " + out.status().ToString());
    return -1;
  }
  return static_cast<double>(t1 - t0) / 1e6;
}

void Runner::ApplyClosedLoop(int batches, bool timed) {
  // A loop that overruns this fails rather than push the run past its time
  // limit.
  const uint64_t deadline = NowNs() + 110'000'000'000ULL;
  for (int i = 0; i < batches; ++i) {
    if (NowNs() > deadline) {
      const uint64_t left = static_cast<uint64_t>(batches - i);
      result_.attempted += left;
      result_.failed += left;
      result_.notes.push_back("error: deadline reached, " +
                              std::to_string(left) + " batches not run");
      return;
    }
    ChangeSet batch = source_->NextBatch();
    const size_t tuples = batch.TotalTuples();
    // The shadow goes first on odd batches and second on even ones, so
    // neither manager always runs on the other's warm caches.
    ChangeSet twin;
    if (shadow_.vm) twin = batch;
    const bool shadow_first = i % 2 == 1;
    double shadow_ms = 0;
    if (shadow_.vm && shadow_first) {
      shadow_ms = ApplyTo(&shadow_, std::move(twin), nullptr, nullptr);
    }
    const double ms = ApplyTo(&managed_, std::move(batch), tracer_,
                              timed ? "apply" : "warmup.apply");
    if (shadow_.vm && !shadow_first) {
      shadow_ms = ApplyTo(&shadow_, std::move(twin), nullptr, nullptr);
    }
    if (ms < 0 || shadow_ms < 0) continue;
    if (timed) {
      result_.apply_ms.push_back(ms);
      result_.kernel_ms.push_back(kernel_.TimeMs());
      result_.base_tuples += tuples;
      if (shadow_.vm) result_.shadow_apply_ms.push_back(shadow_ms);
    }
    if (tracer_ != nullptr) {
      Scope span(tracer_, "publication_probe", managed_.registry.get());
      result_.publication.Observe(*managed_.vm, timed);
    }
    if (!timed) continue;
    if (spec_.checkpoint_every > 0 && (i + 1) % spec_.checkpoint_every == 0) {
      CheckpointNow();
    }
    if ((i + 1) % spec_.probe_every != 0) continue;
    for (int r = 0; r < kReadsPerProbe; ++r) {
      DoRead(source_->NextRead(&probe_rng_, r));
    }
  }
}

void Runner::DoRead(const Read& read) {
  MetricsRegistry* registry = managed_.registry.get();
  ReadSample sample;
  sample.batch = result_.apply_ms.size() - 1;
  const int64_t request = ++request_;
  const uint64_t t0 = NowNs();
  Scope op(tracer_, "read", registry, 0, request);
  Scope pin(tracer_, "snapshot", registry, op.id(), request);
  Snapshot snap = managed_.vm->snapshot();
  const uint64_t t1 = NowNs();
  pin.End();
  sample.cold = snap.epoch() != read_epoch_;
  read_epoch_ = snap.epoch();
  Scope query(tracer_, sample.cold ? "query.cold" : "query", registry, op.id(),
              request);
  Result<Relation> answer = snap.Query(read.query);
  const uint64_t t2 = NowNs();
  query.End();
  snap.Release();
  const uint64_t t3 = NowNs();
  op.End();
  sample.pin_us = static_cast<double>(t1 - t0) / 1e3;
  sample.query_us = static_cast<double>(t2 - t1) / 1e3;
  sample.latency_us = static_cast<double>(t3 - t0) / 1e3;
  ++result_.attempted;
  if (!answer.ok()) {
    Fail("query " + read.query + ": " + answer.status().ToString());
  } else if (!source_->CheckRead(read, *answer)) {
    Fail("query " + read.query + " returned an impossible answer");
  } else {
    result_.reads.push_back(sample);
  }
}

void Runner::CheckpointNow() {
  for (Managed* m : {&managed_, &shadow_}) {
    if (!m->vm) continue;
    ++result_.attempted;
    Scope span(m == &managed_ ? tracer_ : nullptr, "checkpoint",
               m->registry.get(), 0, ++request_);
    ivm::Status s = m->vm->Checkpoint();
    if (!s.ok()) Fail("checkpoint: " + s.ToString());
  }
}

void Runner::CheckFinalState(const Managed& m) {
  // A fresh manager over the final base state must hold exactly the
  // maintained extents, view by view.
  Database final_base;
  source_->FillBase(&final_base);
  Result<Program> program = source_->BuildProgram(nullptr);
  if (!program.ok()) {
    Fail("oracle: " + program.status().ToString());
    result_.oracle_ok = false;
    return;
  }
  auto fresh = ViewManager::Create(std::move(*program), ViewManager::Options());
  if (!fresh.ok() || !(*fresh)->Initialize(final_base).ok()) {
    Fail("oracle: fresh manager failed to initialize");
    result_.oracle_ok = false;
    return;
  }
  Snapshot expected = (*fresh)->snapshot();
  Snapshot actual = m.vm->snapshot();
  const std::vector<std::string> names = expected.RelationNames();
  if (names != actual.RelationNames()) {
    Fail("oracle: relation sets differ");
    result_.oracle_ok = false;
  }
  for (const std::string& name : names) {
    ++result_.attempted;
    auto want = expected.Get(name);
    auto got = actual.Get(name);
    if (!want.ok() || !got.ok() || !(**want == **got)) {
      result_.oracle_ok = false;
      Fail("oracle: relation " + name + " differs from recomputation");
    }
  }
}

RunResult Runner::Run() {
  std::filesystem::create_directories(options_.work_dir);
  // Setups before and after the timed phase sample the machine at two
  // points in time rather than one.
  const int setups_before = (kSetups + 1) / 2;
  if (!SetUpRound(setups_before)) return std::move(result_);
  if (tracer_ != nullptr) {
    Database base;
    source_->FillBase(&base);
    if (SetUpOnce(base, "shadow", nullptr, &shadow_) < 0) {
      return std::move(result_);
    }
    Scope span(tracer_, "publication_probe", managed_.registry.get());
    result_.publication.Observe(*managed_.vm, false);
  }
  ApplyClosedLoop(kWarmupBatches, /*timed=*/false);
  if (managed_.registry) {
    result_.counters.start = CounterWindow::Capture(*managed_.registry);
  }
  ApplyClosedLoop(
      static_cast<int>(std::lround(options_.seconds * spec_.batches_per_second)),
      /*timed=*/true);
  if (managed_.registry) {
    result_.counters.end = CounterWindow::Capture(*managed_.registry);
  }
  result_.peak_rss_mib = PeakRssMiB();
  result_.oracle_ok = true;
  CheckFinalState(managed_);
  if (shadow_.vm) CheckFinalState(shadow_);
  Discard(&shadow_);
  SetUpRound(kSetups - setups_before);
  Discard(&managed_);
  return std::move(result_);
}

void Runner::Discard(Managed* m) {
  if (m->registry) {
    result_.spans_dropped += m->registry->counter_value("obs.spans_dropped");
  }
  // The manager first: it holds a raw pointer to the registry.
  m->vm.reset();
  m->registry.reset();
  if (!m->durable_dir.empty()) std::filesystem::remove_all(m->durable_dir);
  m->durable_dir.clear();
}

// ---------------------------------------------------------------------------
// Workload table.

struct WorkloadDef {
  std::string name;
  Spec spec;
  std::function<std::unique_ptr<Source>(uint64_t seed)> make;
};

const std::vector<WorkloadDef>& Workloads() {
  static const auto* defs = new std::vector<WorkloadDef>{
      {"tpch_stream",
       Spec{.batches_per_second = 6, .checkpoint_every = 60, .probe_every = 4},
       [](uint64_t seed) {
         return std::make_unique<TpchSource>(seed, TpchScale());
       }},
      {"graph_reach",
       Spec{.batches_per_second = 7, .probe_every = 5},
       [](uint64_t seed) {
         return std::make_unique<GraphSource>(seed, GraphScale());
       }},
  };
  return *defs;
}

RunResult RunPass(const RunOptions& options, const WorkloadDef& def,
                  Tracer* tracer) {
  Runner runner(options, def.spec, def.make(options.seed), tracer);
  return runner.Run();
}

void AddTail(const std::string& name, const std::string& unit,
             std::vector<double> values, Outcome* out) {
  const double p = TailPercentile(values.size());
  const double v = Percentile(&values, p);
  out->metrics.push_back({name, v, unit});
  out->notes.push_back(name + " = p" + Fmt(p, 1) + " of " +
                       std::to_string(values.size()) + " samples (" +
                       Fmt(values.size() * (100 - p) / 100, 0) +
                       " beyond it): " + Fmt(v) + " " + unit);
}

void EndToEnd(const RunResult& r, Outcome* out) {
  // Latencies in reference time: each divided by the local length of a
  // reference millisecond (ReferenceKernel).
  const std::vector<double> ref_ms = LocalRefMs(r.kernel_ms);
  std::vector<double> apply, read;
  double apply_ref_s = 0;
  for (size_t i = 0; i < r.apply_ms.size(); ++i) {
    apply.push_back(r.apply_ms[i] / ref_ms[i]);
    apply_ref_s += apply.back() / 1e3;
  }
  std::vector<double> read_raw;
  for (const ReadSample& s : r.reads) {
    read.push_back(s.latency_us / ref_ms[s.batch]);
    read_raw.push_back(s.latency_us);
  }
  std::string setups;
  for (double s : r.setup_s) setups += " " + Fmt(s);
  out->notes.push_back("setup_s = median of" + setups + " s");
  out->notes.push_back(
      "wall clock: apply p50 " + Fmt(Median(r.apply_ms)) + " ms, read p50 " +
      Fmt(Median(read_raw)) + " us; reference kernel p50 " +
      Fmt(Median(r.kernel_ms)) + " ms (min " +
      Fmt(r.kernel_ms.empty() ? 0
                              : *std::min_element(r.kernel_ms.begin(),
                                                  r.kernel_ms.end())) +
      ", max " +
      Fmt(r.kernel_ms.empty() ? 0
                              : *std::max_element(r.kernel_ms.begin(),
                                                  r.kernel_ms.end())) +
      ")");
  out->metrics.push_back({"setup_s", Median(r.setup_s), "s"});
  out->metrics.push_back({"apply_p50_ms", Median(apply), "ref_ms"});
  AddTail("apply_tail_ms", "ref_ms", apply, out);
  out->metrics.push_back(
      {"base_tuples_per_s",
       apply_ref_s > 0 ? static_cast<double>(r.base_tuples) / apply_ref_s : 0,
       "1/ref_s"});
  out->metrics.push_back({"read_p50_us", Median(read), "ref_us"});
  AddTail("read_tail_us", "ref_us", read, out);
  out->metrics.push_back({"peak_rss_mb", r.peak_rss_mib, "MiB"});
  out->metrics.push_back(
      {"ops_ok_frac",
       r.attempted == 0 ? 0
                        : static_cast<double>(r.attempted - r.failed) /
                              static_cast<double>(r.attempted),
       "ratio"});
}

/// Per-layer table, derived from the finished trace plus the registry's
/// counters over the timed phase.
void PerLayer(const RunResult& r, const std::vector<Span>& spans,
              Outcome* out) {
  std::map<int64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  // The benchmark span a span descends from.
  auto root_of = [&](const Span& s) -> const Span* {
    const Span* cur = &s;
    while (cur->library && cur->parent != 0) cur = by_id.at(cur->parent);
    return cur->library ? nullptr : cur;
  };
  std::map<std::string, std::vector<double>> bench_ms;  // by name
  std::map<std::string, double> timed_lib_ms;  // library spans under "apply"
  double apply_self_ms = 0;
  for (const Span& s : spans) {
    const double ms = static_cast<double>(s.duration()) / 1e6;
    if (!s.library) {
      bench_ms[s.name].push_back(ms);
      continue;
    }
    const Span* root = root_of(s);
    if (root == nullptr || root->name != "apply") continue;
    timed_lib_ms[s.name] += ms;
    if (s.name == "apply") apply_self_ms += ms;
    const auto parent = by_id.find(s.parent);
    if (parent != by_id.end() && parent->second->library &&
        parent->second->name == "apply") {
      apply_self_ms -= ms;  // a maintainer, trigger or WAL child
    }
  }
  const double applies = std::max<double>(1, bench_ms["apply"].size());
  auto per_apply = [&](const char* lib) { return timed_lib_ms[lib] / applies; };
  auto med = [&](const char* bench) { return Median(bench_ms[bench]); };
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  std::vector<double> query_us, cold_us, pin_us;
  for (const ReadSample& s : r.reads) {
    query_us.push_back(s.query_us);
    pin_us.push_back(s.pin_us);
    if (s.cold) cold_us.push_back(s.query_us);
  }
  const CounterWindow& c = r.counters;
  const double base = c.Delta("apply.base_delta_tuples");
  const double hits = c.Delta("eval.plan_cache.hits");
  auto add = [&](const char* name, double v, const char* unit) {
    out->metrics.push_back({name, v, unit});
  };
  add("sql.translate_ms", med("setup.translate"), "ms");
  add("datalog.parse_ms", med("setup.parse"), "ms");
  add("analysis.advise_ms", med("setup.advise"), "ms");
  add("core.create_ms", med("setup.create"), "ms");
  add("core.initialize_ms", med("setup.initialize"), "ms");
  add("txn.enable_durability_ms", med("setup.enable_durability"), "ms");
  add("core.apply_self_ms", apply_self_ms / applies, "ms");
  add("core.counting_stratum_ms", per_apply("counting.stratum"), "ms");
  add("core.dred_overdelete_ms", per_apply("dred.overdelete"), "ms");
  add("core.dred_rederive_ms", per_apply("dred.rederive"), "ms");
  add("core.dred_insert_ms", per_apply("dred.insert"), "ms");
  add("core.dred_rederive_ratio",
      ratio(c.Delta("dred.rederived"), c.Delta("dred.overdeleted")), "ratio");
  add("eval.plan_cache_hit_ratio",
      ratio(hits, hits + c.Delta("eval.plan_cache.misses")), "ratio");
  add("eval.scanned_per_base_tuple",
      ratio(c.Delta("counting.tuples_scanned") + c.Delta("dred.tuples_scanned"),
            base),
      "count");
  add("core.view_delta_per_base_tuple",
      ratio(c.Delta("apply.view_delta_tuples"), base), "count");
  add("storage.copied_tuples_per_apply",
      r.publication.copied_tuples_per_commit(), "count");
  add("storage.extents_shared_ratio", r.publication.shared_ratio(), "ratio");
  add("storage.pin_us_p50", Median(pin_us), "us");
  add("core.query_us_p50", Median(query_us), "us");
  add("core.query_cold_us_p50", Median(cold_us), "us");
  add("txn.wal_append_ms", per_apply("wal.append"), "ms");
  add("txn.wal_fsync_ms", per_apply("wal.fsync"), "ms");
  add("txn.wal_bytes_per_base_tuple", ratio(c.Delta("wal.bytes_appended"), base),
      "B");
  add("txn.checkpoint_ms", med("checkpoint"), "ms");
  // The traced manager and its untraced shadow applied the same batches,
  // interleaved, so machine drift cancels out of their ratio.
  double traced_ms = 0, shadow_ms = 0;
  for (double ms : r.apply_ms) traced_ms += ms;
  for (double ms : r.shadow_apply_ms) shadow_ms += ms;
  add("obs.tracing_overhead_frac", ratio(traced_ms, shadow_ms) - 1, "ratio");
  add("obs.spans_dropped", static_cast<double>(r.spans_dropped), "count");
  out->notes.push_back("tracing overhead: " + Fmt(traced_ms) + " ms in " +
                       std::to_string(r.apply_ms.size()) +
                       " traced applies vs " + Fmt(shadow_ms) +
                       " ms for the same batches untraced");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto* names = [] {
    auto* v = new std::vector<std::string>;
    for (const WorkloadDef& d : Workloads()) v->push_back(d.name);
    return v;
  }();
  return *names;
}

Outcome RunBenchmark(const RunOptions& options) {
  Outcome out;
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : Workloads()) {
    if (d.name == options.workload) def = &d;
  }
  if (def == nullptr) {
    out.notes.push_back("unknown workload " + options.workload);
    return out;
  }
  // End-to-end numbers come from an untraced pass; per-layer numbers from a
  // traced pass with an untraced shadow manager beside it.
  Tracer tracer;
  RunResult r = RunPass(options, *def, options.trace ? &tracer : nullptr);
  out.attempted = r.attempted;
  out.failed = r.failed;
  for (const std::string& n : r.notes) out.notes.push_back(n);
  if (!options.trace) {
    EndToEnd(r, &out);
  } else {
    const std::vector<Span>& spans = tracer.Finish();
    PerLayer(r, spans, &out);
    if (!options.trace_path.empty()) {
      if (tracer.Write(options.trace_path)) {
        out.notes.push_back("trace: " + std::to_string(spans.size()) +
                            " spans written to " + options.trace_path);
      } else {
        out.notes.push_back("error: cannot write " + options.trace_path);
        ++out.failed;
      }
    }
  }
  out.correct = r.oracle_ok && out.failed == 0;
  return out;
}

}  // namespace perfbench
