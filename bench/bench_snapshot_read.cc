// Snapshot-read scaling: throughput of the concurrent read path
// (ViewManager::snapshot() + Snapshot::Get/Query, docs/concurrency.md) at
// 1/4/8 reader threads, with and without a concurrent writer applying a
// steady stream of batches. On one hardware thread the series measures
// pin/unpin and copy-on-write publication overhead; on a multi-core machine
// it shows that readers scale independently of the writer — the property
// the epoch-versioned storage tier exists to provide.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/snapshot.h"

namespace ivm {
namespace {

constexpr const char* kProgram =
    "base link(S, D).\n"
    "hop(X, Y) :- link(X, Z) & link(Z, Y).\n"
    "deg(X, N) :- groupby(link(X, Y), [X], N = count(*)).\n";
constexpr int kNodes = 200;
constexpr int kEdges = 2000;
constexpr int kBatch = 64;

/// One reader iteration: pin, point-read both views, drop the pin. The
/// tight pin/read/unpin cycle is the serving-tier hot path.
uint64_t ReadOnce(const ViewManager& vm) {
  Snapshot snap = vm.snapshot();
  uint64_t checksum = snap.Get("hop").value()->size();
  checksum += snap.Get("deg").value()->size();
  return checksum;
}

void RunReaders(benchmark::State& state, bool with_writer) {
  const int readers = static_cast<int>(state.range(0));
  Database db = bench::MakeGraphDb("link", kNodes, kEdges, 41);
  MetricsRegistry metrics;
  ViewManager::Options options;
  options.strategy = Strategy::kCounting;
  options.metrics = &metrics;
  auto vm = bench::MakeManager(kProgram, db, options);

  std::atomic<bool> stop{false};
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      ChangeSet batch =
          MakeMixedEdgeBatch("link", db.relation("link"), kNodes, kBatch / 2,
                             kBatch / 2, /*seed=*/59);
      ChangeSet inverse = bench::Invert(batch);
      while (!stop.load(std::memory_order_acquire)) {
        vm->Apply(batch).status().CheckOK();
        vm->Apply(inverse).status().CheckOK();
      }
    });
  }

  // Each benchmark iteration spawns `readers` threads, lets each complete
  // kReadsPerRound pin/read/unpin cycles, and joins them, so thread start
  // and join are part of every iteration. The reads run on the spawned
  // threads, so only real time (UseRealTime) measures them; the reported
  // CPU time is the spawning thread's alone.
  uint64_t total_reads = 0;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(readers);
    std::atomic<uint64_t> checksum{0};
    constexpr int kReadsPerRound = 16;
    for (int r = 0; r < readers; ++r) {
      pool.emplace_back([&] {
        uint64_t local = 0;
        for (int i = 0; i < kReadsPerRound; ++i) local += ReadOnce(*vm);
        checksum.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : pool) t.join();
    benchmark::DoNotOptimize(checksum.load());
    total_reads += static_cast<uint64_t>(readers) * kReadsPerRound;
  }

  if (with_writer) {
    stop.store(true, std::memory_order_release);
    writer.join();
  }

  state.counters["readers"] = readers;
  state.counters["reads"] =
      benchmark::Counter(static_cast<double>(total_reads));
  state.counters["reads_per_s"] = benchmark::Counter(
      static_cast<double>(total_reads), benchmark::Counter::kIsRate);
  bench::ExportMetrics(metrics, state);
}

void BM_SnapshotRead(benchmark::State& state) {
  RunReaders(state, /*with_writer=*/false);
}
void BM_SnapshotReadVsWriter(benchmark::State& state) {
  RunReaders(state, /*with_writer=*/true);
}

BENCHMARK(BM_SnapshotRead)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_SnapshotReadVsWriter)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace ivm
