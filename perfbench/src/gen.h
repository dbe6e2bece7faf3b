#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

// Seeded, stationary input generators. Every tuple is a pure function of
// (seed, key), so a batch is generated on the fly and the generators hold no
// copy of the data they feed the library: the benchmark's own memory stays
// out of peak_rss_mb.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/change_set.h"
#include "storage/database.h"

namespace perfbench {

/// SplitMix64 finalizer: a bijective 64-bit mix.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Small deterministic PRNG (SplitMix64 stream).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_++); }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Sizes of the TPC-H-shaped rolling window.
struct TpchScale {
  int64_t customers = 2000;
  int64_t parts = 2500;
  int64_t window_orders = 10000;  // live orders at every point of the run
  int64_t orders_per_batch = 20;  // inserted and deleted by each batch
};

/// customer / part are static; orders with their lineitems form a rolling
/// window [lo, hi) of order keys. Each batch inserts `orders_per_batch` new
/// orders (with their lineitems) and deletes the same number of oldest ones,
/// so table sizes, group sizes and batch contents are the same throughout.
class TpchGen {
 public:
  TpchGen(uint64_t seed, TpchScale scale);

  /// CREATE TABLE statements plus the four maintained views.
  static const char* SchemaSql();

  /// Creates the four base relations in `db` and fills them with the
  /// current window (the initial one before any NextBatch call).
  void FillBase(ivm::Database* db) const;
  /// Next rolling-window batch; advances the window.
  ivm::ChangeSet NextBatch();

  /// Read-mix keys.
  int64_t RandomCustomer(Rng* rng) const;
  std::string RandomBrand(Rng* rng) const;

 private:
  void AddOrder(int64_t orderkey, bool insert, ivm::ChangeSet* out) const;

  uint64_t seed_;
  TpchScale scale_;
  int64_t lo_ = 0;  // oldest live order key
  int64_t hi_;      // one past the newest
};

/// Sizes of the community graph.
struct GraphScale {
  int64_t communities = 45;
  int64_t nodes = 60;             // per community
  int64_t edges = 180;            // per community: ring + chords, distinct
  int64_t deletes_per_batch = 2;  // k
};

/// Dense communities (each one strongly connected component: a ring plus
/// random chords) with no edges between them. Each batch reinserts the previous batch's deletions
/// and deletes k freshly sampled edges, so the edge set stays within k of
/// the full graph.
class GraphGen {
 public:
  GraphGen(uint64_t seed, GraphScale scale);

  static const char* ProgramText();

  /// Creates `edge` in `db` with the current edge set.
  void FillBase(ivm::Database* db) const;
  ivm::ChangeSet NextBatch();

 private:
  GraphScale scale_;
  Rng rng_;
  std::vector<std::pair<int64_t, int64_t>> edges_;
  std::vector<size_t> deleted_;  // indices into edges_, removed last batch
};

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
