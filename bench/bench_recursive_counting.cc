// Experiment B12 (DESIGN.md): Section 8 — "Counting can be used to maintain
// recursive views also. However computing counts for recursive views is
// expensive". We quantify that trade-off on acyclic data (where counts are
// finite): recursive counting pays for exact counts at initialization and
// on insertions, but handles deletions without any rederivation phase,
// while DRed over-deletes and rederives.
//
// Series: TC over layered DAGs (counts grow multiplicatively with depth),
// recursive counting vs DRed, deletions and insertions separately.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace ivm {
namespace {

constexpr const char* kTc =
    "base edge(X, Y).\n"
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Y) :- path(X, Z) & edge(Z, Y).";

/// A layered DAG: `layers` layers of `width` nodes, each node wired to
/// `fanout` nodes of the next layer. Acyclic, with many alternative paths.
Database LayeredDag(int layers, int width, int fanout) {
  Database db;
  db.CreateRelation("edge", 2).CheckOK();
  Relation& edge = db.mutable_relation("edge");
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      for (int f = 0; f < fanout; ++f) {
        edge.Add(Tup(l * 100 + i, (l + 1) * 100 + (i + f) % width), 1);
      }
    }
  }
  return db;
}

void RunDeletions(benchmark::State& state, Strategy strategy) {
  const int layers = static_cast<int>(state.range(0));
  Database db = LayeredDag(layers, 8, 2);
  MetricsRegistry metrics;
  auto vm = bench::MakeManager(kTc, strategy, db, &metrics,
                               strategy == Strategy::kRecursiveCounting
                                   ? Semantics::kDuplicate
                                   : Semantics::kSet);
  ChangeSet batch;
  batch.Delete("edge", Tup(0, 100));
  batch.Delete("edge", Tup(2, 102));
  ChangeSet inverse = bench::Invert(batch);
  size_t peak_delta = 0;
  // Initialize's worklist also counts into rc.*; drop it so the exported
  // counters hold only the timed round trips (names stay registered).
  metrics.Reset();
  for (auto _ : state) {
    bench::ApplyRoundTrip(*vm, batch, inverse, &peak_delta);
  }
  state.counters["layers"] = layers;
  state.counters["path_tuples"] =
      static_cast<double>(vm->snapshot().Get("path").value()->size());
  state.counters["peak_delta_tuples"] = static_cast<double>(peak_delta);
  // rc.worklist_steps vs dred.overdeleted+rederived is the Section 8
  // trade-off in numbers.
  bench::ExportMetrics(metrics, state);
}

void BM_DeleteRecursiveCounting(benchmark::State& state) {
  RunDeletions(state, Strategy::kRecursiveCounting);
}
void BM_DeleteDRed(benchmark::State& state) {
  RunDeletions(state, Strategy::kDRed);
}

#define LAYERS ->Arg(4)->Arg(6)->Arg(8)
BENCHMARK(BM_DeleteRecursiveCounting) LAYERS;
BENCHMARK(BM_DeleteDRed) LAYERS;

void RunInit(benchmark::State& state, Strategy strategy) {
  const int layers = static_cast<int>(state.range(0));
  Database db = LayeredDag(layers, 8, 2);
  for (auto _ : state) {
    auto vm = bench::MakeManager(kTc, strategy, db,
                                 strategy == Strategy::kRecursiveCounting
                                     ? Semantics::kDuplicate
                                     : Semantics::kSet);
    benchmark::DoNotOptimize(vm);
  }
  state.counters["layers"] = layers;
}

void BM_InitRecursiveCounting(benchmark::State& state) {
  RunInit(state, Strategy::kRecursiveCounting);
}
void BM_InitDRed(benchmark::State& state) {
  RunInit(state, Strategy::kDRed);
}
BENCHMARK(BM_InitRecursiveCounting) LAYERS;
BENCHMARK(BM_InitDRed) LAYERS;

}  // namespace
}  // namespace ivm
