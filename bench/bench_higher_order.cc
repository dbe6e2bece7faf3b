// Higher-order maintenance (docs/higher_order.md) vs counting vs full
// recompute on multi-way join views — the workload Strategy::kHigherOrder
// is built for.
//
// The view is a chain join over `width` distinct edge relations:
//
//   v(X0, Xw) :- r1(X0, X1) & r2(X1, X2) & ... & rw(X{w-1}, Xw).
//
// On a dense random graph (fanout f = edges / nodes), counting's delta rule
// for a change to the middle relation re-enumerates every derivation path
// through the join remainder: ~f^(w-1) paths per changed tuple. Higher-order
// maintenance has already materialized the remainder's connected components
// (the prefix and suffix interval joins) as counted auxiliary views whose
// counts pre-aggregate over the projected-away interior variables, so the
// same change is a pair of hash lookups touching only *distinct* endpoint
// rows — at most nodes^2, independent of the fanout. Recompute re-derives
// everything and bounds the worst case.
//
// Measured: batch-1 (a single middle-relation edge delete + its inverse)
// and batch-64 (mixed deletes/inserts across all relations), on 3-way and
// 5-way joins. Acceptance (ISSUE 10): higher-order >= 3x faster than
// counting on the batch-1 apply for the 5-way join.

#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"

namespace ivm {
namespace {

constexpr int kNodes = 40;
constexpr int kEdgesPerRelation = 960;  // fanout 24

/// "base r1(S, D). ... v(X0, Xw) :- r1(X0, X1) & ... & rw(X{w-1}, Xw)."
std::string ChainJoinProgram(int width) {
  std::string out;
  for (int i = 1; i <= width; ++i) {
    out += "base r" + std::to_string(i) + "(S, D).\n";
  }
  out += "v(X0, X" + std::to_string(width) + ") :- ";
  for (int i = 1; i <= width; ++i) {
    if (i > 1) out += " & ";
    out += "r" + std::to_string(i) + "(X" + std::to_string(i - 1) + ", X" +
           std::to_string(i) + ")";
  }
  out += ".";
  return out;
}

Database ChainJoinDb(int width) {
  Database db;
  for (int i = 1; i <= width; ++i) {
    const std::string name = "r" + std::to_string(i);
    db.CreateRelation(name, 2).CheckOK();
    FillEdgeRelation(RandomGraph(kNodes, kEdgesPerRelation, 7000 + i),
                     &db.mutable_relation(name));
  }
  return db;
}

/// batch-1: delete one edge of the middle relation (worst spot for
/// counting — both a prefix and a suffix remainder to enumerate).
/// batch-64: 64 mixed single-edge deletes/inserts spread round-robin over
/// all relations. Deterministic for a given (width, batch).
ChangeSet MakeBatch(const Database& db, int width, int batch) {
  std::mt19937_64 rng(99 * width + batch);
  ChangeSet out;
  if (batch == 1) {
    const std::string mid = "r" + std::to_string((width + 1) / 2);
    out.Delete(mid, db.relation(mid).SortedTuples().front());
    return out;
  }
  std::uniform_int_distribution<int> node(0, kNodes - 1);
  for (int i = 0; i < batch; ++i) {
    const std::string name = "r" + std::to_string(i % width + 1);
    const Relation& rel = db.relation(name);
    if (i % 2 == 0) {
      const std::vector<Tuple> tuples = rel.SortedTuples();
      std::uniform_int_distribution<size_t> pick(0, tuples.size() - 1);
      const Tuple& t = tuples[pick(rng)];
      if (!out.Delta(name).Contains(t)) out.Delete(name, t);
    } else {
      const Tuple t = Tup(node(rng), node(rng));
      if (!rel.Contains(t) && !out.Delta(name).Contains(t)) {
        out.Insert(name, t);
      }
    }
  }
  return out;
}

/// A built and initialized chain-join manager with its batch. Building the
/// database and initializing the 5-way join costs far more than the timed
/// round trips, and the harness calls each benchmark several times while it
/// settles the iteration count, so the last fixture is kept for the next
/// call. Every round trip restores the manager's state, so a reused one
/// does the same work per iteration as a fresh one.
struct ChainJoinFixture {
  Strategy strategy;
  int width;
  int batch;
  MetricsRegistry metrics;  // outlives `vm`, which reports into it
  std::unique_ptr<ViewManager> vm;
  ChangeSet changes;
  ChangeSet inverse;
};

ChainJoinFixture& CachedFixture(Strategy strategy, int width, int batch) {
  static std::unique_ptr<ChainJoinFixture> last;
  if (last != nullptr && last->strategy == strategy && last->width == width &&
      last->batch == batch) {
    return *last;
  }
  last.reset();  // free the previous manager before building the next
  auto fixture = std::make_unique<ChainJoinFixture>();
  fixture->strategy = strategy;
  fixture->width = width;
  fixture->batch = batch;
  Database db = ChainJoinDb(width);
  fixture->vm = bench::MakeManager(ChainJoinProgram(width), strategy, db,
                                   &fixture->metrics);
  fixture->changes = MakeBatch(db, width, batch);
  fixture->inverse = bench::Invert(fixture->changes);
  last = std::move(fixture);
  return *last;
}

void RunChainJoin(benchmark::State& state, Strategy strategy) {
  const int width = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  ChainJoinFixture& fixture = CachedFixture(strategy, width, batch);
  // Count the timed loop only, not setup or an earlier call's loop.
  fixture.metrics.Reset();
  size_t peak_delta = 0;
  for (auto _ : state) {
    bench::ApplyRoundTrip(*fixture.vm, fixture.changes, fixture.inverse,
                          &peak_delta);
  }
  state.counters["peak_delta_tuples"] = static_cast<double>(peak_delta);
  state.counters["join_width"] = width;
  state.counters["batch_tuples"] =
      static_cast<double>(fixture.changes.TotalTuples());
  bench::ExportMetrics(fixture.metrics, state);
}

void BM_HigherOrder(benchmark::State& state) {
  RunChainJoin(state, Strategy::kHigherOrder);
}
void BM_Counting(benchmark::State& state) {
  RunChainJoin(state, Strategy::kCounting);
}
void BM_Recompute(benchmark::State& state) {
  RunChainJoin(state, Strategy::kRecompute);
}

// Args: {join width, batch size}.
#define CHAIN_ARGS \
  ->Args({3, 1})->Args({3, 64})->Args({5, 1})->Args({5, 64})

BENCHMARK(BM_HigherOrder) CHAIN_ARGS;
BENCHMARK(BM_Counting) CHAIN_ARGS;
BENCHMARK(BM_Recompute) CHAIN_ARGS;

}  // namespace
}  // namespace ivm
