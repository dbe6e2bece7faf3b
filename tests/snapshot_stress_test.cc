// Reader/writer stress for the snapshot-isolated read path
// (docs/concurrency.md): N reader threads continuously pin snapshots and
// check them for internal consistency while ONE writer thread runs a stream
// of random Applies. Run under ThreadSanitizer via tools/run_tsan.sh — a
// clean pass there is the acceptance gate for changes to storage/epoch.* and
// the ViewManager publication path.
//
// What the readers assert:
//   * prefix consistency — a pinned snapshot's contents are byte-identical
//     to what the writer recorded right after committing that epoch (never
//     a mix of two epochs, never a half-applied batch);
//   * stability — reading the same snapshot twice gives identical contents
//     even while the writer commits more epochs in between;
//   * Query() runs safely on shared extents (concurrent demand-built
//     indexes) and agrees with itself on one snapshot.
// Plus a long-held snapshot pinned mid-stream must be unchanged after the
// writer finishes (epoch reclamation must not free under a reader), and,
// with no long-held snapshot, commits alternate between writing their net
// changes into the published extents in place (no pin outstanding) and
// copying them (a reader pins) without a reader ever seeing the difference.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/tuple.h"
#include "core/change_set.h"
#include "core/snapshot.h"
#include "core/view_manager.h"
#include "obs/metrics.h"
#include "random_program_gen.h"
#include "storage/database.h"
#include "test_util.h"

namespace ivm {
namespace {

using testing_util::MustLoadFacts;
using testing_util::RandomProgramText;

/// Full deterministic fingerprint of a pinned snapshot: every relation's
/// sorted contents.
std::map<std::string, std::string> FingerprintSnapshot(const Snapshot& snap) {
  std::map<std::string, std::string> out;
  for (const std::string& name : snap.RelationNames()) {
    out[name] = (*snap.Get(name))->ToString();
  }
  return out;
}

/// Shared epoch → fingerprint journal. The writer records each epoch's
/// contents immediately after the Apply that committed it returns (and
/// before starting the next one), so a reader pinning epoch E waits at most
/// one in-flight record for expected[E] to appear.
class EpochJournal {
 public:
  void Record(uint64_t epoch, std::map<std::string, std::string> fp) {
    std::lock_guard<std::mutex> lock(mu_);
    expected_.emplace(epoch, std::move(fp));
  }

  /// Blocks (spinning with yields) until the writer has journaled `epoch`.
  std::map<std::string, std::string> WaitFor(uint64_t epoch) const {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = expected_.find(epoch);
        if (it != expected_.end()) return it->second;
      }
      std::this_thread::yield();
    }
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::map<std::string, std::string>> expected_;
};

ChangeSet RandomEdgeBatch(std::mt19937_64* rng, const Snapshot& snap) {
  std::uniform_int_distribution<int> node(0, 9);
  std::uniform_int_distribution<int> coin(0, 1);
  ChangeSet batch;
  for (const char* name : {"e1", "e2"}) {
    const Relation& current = **snap.Get(name);
    // Delete one existing edge (when there is one) ...
    if (!current.empty()) {
      std::vector<Tuple> tuples = current.SortedTuples();
      std::uniform_int_distribution<size_t> pick(0, tuples.size() - 1);
      batch.Delete(name, tuples[pick(*rng)]);
    }
    // ... and insert a couple of fresh ones.
    for (int i = 0; i < 2; ++i) {
      Tuple t = Tup(node(*rng), node(*rng));
      if (!current.Contains(t) && !batch.Delta(name).Contains(t)) {
        batch.Insert(name, t);
      }
    }
  }
  return batch;
}

TEST(SnapshotStressTest, ConcurrentReadersOverOneWriter) {
  constexpr int kReaders = 4;
  constexpr int kWriterBatches = 40;

  std::mt19937_64 rng(2026);
  MetricsRegistry metrics;
  ViewManager::Options options;
  options.metrics = &metrics;
  auto vm = ViewManager::CreateFromText(RandomProgramText(&rng), options);
  ASSERT_TRUE(vm.ok()) << vm.status().ToString();

  Database db;
  MustLoadFacts(&db,
                "e1(0, 1). e1(1, 2). e1(2, 3). e1(3, 4). e1(4, 0). "
                "e2(0, 2). e2(2, 4). e2(4, 1). e2(1, 3).");
  IVM_ASSERT_OK((*vm)->Initialize(db));

  EpochJournal journal;
  {
    Snapshot seed = (*vm)->snapshot();
    ASSERT_TRUE(seed.valid());
    journal.Record(seed.epoch(), FingerprintSnapshot(seed));
  }

  // Pinned before any concurrent mutation; must read epoch-0 contents
  // before, during, and after the writer's whole run.
  Snapshot long_held = (*vm)->snapshot();
  const std::map<std::string, std::string> long_held_before =
      FingerprintSnapshot(long_held);

  std::atomic<bool> writer_done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 reader_rng(1000 + r);
      std::uniform_int_distribution<int> pct(0, 99);
      int iterations = 0;
      while (!writer_done.load(std::memory_order_acquire) ||
             iterations < 10) {
        ++iterations;
        Snapshot snap = (*vm)->snapshot();
        if (!snap.valid()) continue;

        // Prefix consistency: contents must equal what the writer recorded
        // for exactly this epoch.
        const auto observed = FingerprintSnapshot(snap);
        const auto expected = journal.WaitFor(snap.epoch());
        if (observed != expected) {
          ++violations;
          ADD_FAILURE() << "reader " << r << " saw torn epoch "
                        << snap.epoch();
          return;
        }

        // Stability: the same pinned snapshot re-read later (the writer may
        // have committed several epochs meanwhile) is bit-identical.
        if (FingerprintSnapshot(snap) != observed) {
          ++violations;
          ADD_FAILURE() << "reader " << r << " snapshot changed under pin";
          return;
        }

        // Concurrent querying exercises demand-built indexes on shared
        // extents; two identical queries on one snapshot must agree.
        if (pct(reader_rng) < 30) {
          auto q1 = snap.Query("e1(X, Y), e2(Y, Z)");
          auto q2 = snap.Query("e1(X, Y), e2(Y, Z)");
          ASSERT_TRUE(q1.ok()) << q1.status().ToString();
          ASSERT_TRUE(q2.ok()) << q2.status().ToString();
          if (q1.value().ToString() != q2.value().ToString()) {
            ++violations;
            ADD_FAILURE() << "reader " << r << " query disagreement";
            return;
          }
        }
      }
    });
  }

  // The single writer: random batches, journaling each committed epoch's
  // contents before starting the next mutation.
  for (int b = 0; b < kWriterBatches; ++b) {
    ChangeSet batch;
    {
      Snapshot current = (*vm)->snapshot();
      batch = RandomEdgeBatch(&rng, current);
    }
    if (batch.empty()) continue;
    auto out = (*vm)->Apply(batch);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    Snapshot committed = (*vm)->snapshot();
    journal.Record(committed.epoch(), FingerprintSnapshot(committed));
  }
  writer_done.store(true, std::memory_order_release);

  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  // The long-held snapshot never moved, despite ~40 epochs retiring around
  // it; epoch reclamation must have kept every one of its extents alive.
  EXPECT_EQ(FingerprintSnapshot(long_held), long_held_before);
  EXPECT_EQ(long_held.epoch(), 0u);
  long_held.Release();

  // Observability: the writer's publications advanced the epoch gauge, and
  // dropping retired versions reclaimed extents.
  EXPECT_EQ(metrics.gauge_value("storage.epoch"),
            static_cast<int64_t>((*vm)->epoch()));
  EXPECT_EQ(metrics.gauge_value("storage.snapshots_pinned"), 0);
  EXPECT_GT(metrics.counter_value("storage.extents_reclaimed"), 0u);
  EXPECT_GT(metrics.counter_value("storage.extents_shared"), 0u);
}

// No long-held snapshot: readers pin and release in a tight loop, so a
// commit finds the published extents pinned or not, and writes its net
// changes in place only when not. Batches cycle through three cases, so
// both publication paths are taken on every run:
//   * readers are held off for the whole Apply (in place);
//   * the writer itself holds a pin across the Apply (copied);
//   * readers run freely (either, decided by the race for the lock).
TEST(SnapshotStressTest, ShortPinsAlternateInPlaceAndCopiedPublication) {
  constexpr int kReaders = 3;
  constexpr int kWriterBatches = 45;

  std::mt19937_64 rng(77);
  MetricsRegistry metrics;
  ViewManager::Options options;
  options.metrics = &metrics;
  auto vm = ViewManager::CreateFromText(RandomProgramText(&rng), options);
  ASSERT_TRUE(vm.ok()) << vm.status().ToString();

  Database db;
  MustLoadFacts(&db,
                "e1(0, 1). e1(1, 2). e1(2, 3). e1(3, 4). e1(4, 0). "
                "e2(0, 2). e2(2, 4). e2(4, 1). e2(1, 3).");
  IVM_ASSERT_OK((*vm)->Initialize(db));

  EpochJournal journal;
  {
    Snapshot seed = (*vm)->snapshot();
    journal.Record(seed.epoch(), FingerprintSnapshot(seed));
  }

  // Reader hold-off: a reader announces itself in `active` before checking
  // `hold_off`, and the writer raises `hold_off` before waiting for
  // `active` to drain, so no reader pins while the writer holds them off.
  std::atomic<bool> hold_off{false};
  std::atomic<int> active{0};
  std::atomic<bool> writer_done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int iterations = 0;
      while (!writer_done.load() || iterations < 10) {
        active.fetch_add(1);
        if (hold_off.load()) {
          active.fetch_sub(1);
          std::this_thread::yield();
          continue;
        }
        ++iterations;
        std::map<std::string, std::string> observed;
        uint64_t epoch = 0;
        bool query_ok = false;
        {
          Snapshot snap = (*vm)->snapshot();
          epoch = snap.epoch();
          observed = FingerprintSnapshot(snap);
          query_ok = snap.Query("e1(X, Y), e2(Y, Z)").ok();
        }
        active.fetch_sub(1);
        // Compared after the release, leaving the writer unpinned windows.
        if (!query_ok || observed != journal.WaitFor(epoch)) {
          ++violations;
          ADD_FAILURE() << "reader " << r << " saw a bad epoch " << epoch;
          return;
        }
      }
    });
  }

  for (int b = 0; b < kWriterBatches; ++b) {
    ChangeSet batch;
    {
      Snapshot current = (*vm)->snapshot();
      batch = RandomEdgeBatch(&rng, current);
    }
    if (batch.empty()) continue;
    Snapshot writer_pin;
    if (b % 3 == 0) {
      hold_off.store(true);
      while (active.load() != 0) std::this_thread::yield();
    } else if (b % 3 == 1) {
      writer_pin = (*vm)->snapshot();
    }
    auto out = (*vm)->Apply(batch);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    writer_pin.Release();
    Snapshot committed = (*vm)->snapshot();
    journal.Record(committed.epoch(), FingerprintSnapshot(committed));
    committed.Release();
    hold_off.store(false);
  }
  writer_done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  EXPECT_GT(metrics.counter_value("storage.tuples_copied"), 0u);
  EXPECT_GT(metrics.counter_value("storage.extents_replayed"), 0u);
  EXPECT_EQ(metrics.gauge_value("storage.snapshots_pinned"), 0);
}

// A writer-free sanity slice of the same invariants, cheap enough to run
// everywhere (the full interleavings are TSan's job above).
TEST(SnapshotStressTest, SnapshotSurvivesManagerMutationsSerially) {
  auto vm = ViewManager::CreateFromText(
      "base link(S, D). hop(X, Y) :- link(X, Z) & link(Z, Y).");
  ASSERT_TRUE(vm.ok());
  Database db;
  MustLoadFacts(&db, "link(a, b). link(b, c).");
  IVM_ASSERT_OK((*vm)->Initialize(db));

  Snapshot pinned = (*vm)->snapshot();
  const std::string hop_before = (*pinned.Get("hop"))->ToString();
  EXPECT_EQ(hop_before, "{(\"a\", \"c\")}");

  ChangeSet changes;
  changes.Delete("link", Tup("a", "b"));
  ASSERT_TRUE((*vm)->Apply(changes).ok());

  // New snapshots see the new epoch; the pinned one still reads the old.
  EXPECT_TRUE((*(*vm)->snapshot().Get("hop"))->empty());
  EXPECT_EQ((*pinned.Get("hop"))->ToString(), hop_before);
  EXPECT_EQ(pinned.epoch(), 0u);
  EXPECT_EQ((*vm)->snapshot().epoch(), 1u);

  // Released handles refuse reads instead of dangling.
  pinned.Release();
  EXPECT_FALSE(pinned.valid());
  EXPECT_FALSE(pinned.Get("hop").ok());
}

// Regression: a rule change republishes copy-on-write, sharing the extents
// of every untouched relation. The first implementation force-copied all of
// them — a workaround for an ABA hazard in the (address, version) extent
// fingerprint, fixed by fingerprinting on Relation::uid() (process-unique,
// never reused even when a reallocated slot lands on the same address).
TEST(SnapshotStressTest, RuleChangeSharesUntouchedExtents) {
  MetricsRegistry metrics;
  ViewManager::Options options;
  options.strategy = Strategy::kDRed;
  options.metrics = &metrics;
  auto vm = ViewManager::CreateFromText(
      "base link(S, D). base other(S, D).\n"
      "hop(X, Y) :- link(X, Z) & link(Z, Y).\n"
      "copy(X, Y) :- other(X, Y).\n",
      options);
  ASSERT_TRUE(vm.ok()) << vm.status().ToString();
  Database db;
  MustLoadFacts(&db, "link(a, b). link(b, c). other(p, q).");
  IVM_ASSERT_OK((*vm)->Initialize(db));

  Snapshot pinned = (*vm)->snapshot();
  const uint64_t shared_before = metrics.counter_value("storage.extents_shared");
  ASSERT_TRUE((*vm)->AddRuleText("hop(X, Y) :- link(X, Y).").ok());

  // Only 'hop' changed: 'link', 'other', and 'copy' must have been shared,
  // not copied, into the new storage version.
  EXPECT_GE(metrics.counter_value("storage.extents_shared"),
            shared_before + 3);
  // And the pinned pre-change snapshot still reads the old rule set's
  // contents (the shared extents are immutable).
  EXPECT_EQ((*pinned.Get("hop"))->ToString(), "{(\"a\", \"c\")}");
  EXPECT_EQ((*(*vm)->snapshot().Get("hop"))->SortedTuples().size(), 3u);
}

// A pinned snapshot keeps its contents across a commit that touches the
// relation (that commit copies). Once nothing is pinned, commits write into
// the published extent in place: the same object across epochs, with the
// index a reader built on it kept up to date instead of rebuilt.
TEST(SnapshotStressTest, UnpinnedCommitsUpdateThePublishedExtentInPlace) {
  auto vm = ViewManager::CreateFromText(
      "base link(S, D). hop(X, Y) :- link(X, Z) & link(Z, Y).");
  ASSERT_TRUE(vm.ok());
  Database db;
  MustLoadFacts(&db, "link(a, b). link(b, c). link(c, d).");
  IVM_ASSERT_OK((*vm)->Initialize(db));

  Snapshot pinned = (*vm)->snapshot();
  const Relation* hop_pinned = *pinned.Get("hop");
  ChangeSet first;
  first.Insert("link", Tup("d", "e"));
  ASSERT_TRUE((*vm)->Apply(first).ok());
  EXPECT_EQ(hop_pinned->ToString(), "{(\"a\", \"c\"), (\"b\", \"d\")}");
  pinned.Release();

  const Relation* hop = nullptr;
  uint64_t rebuilds = 0;
  {
    Snapshot snap = (*vm)->snapshot();
    ASSERT_TRUE(snap.Query("hop(a, Y)").ok());
    hop = *snap.Get("hop");
    rebuilds = hop->index_rebuilds();
    EXPECT_TRUE(hop->Contains(Tup("c", "e")));
  }
  const char* more[] = {"f", "g", "h"};
  for (const char* node : more) {
    ChangeSet changes;
    changes.Insert("link", Tup("a", node));
    changes.Insert("link", Tup(node, "b"));
    ASSERT_TRUE((*vm)->Apply(changes).ok());
    Snapshot snap = (*vm)->snapshot();
    EXPECT_EQ(*snap.Get("hop"), hop) << "epoch " << snap.epoch();
    auto answer = snap.Query("hop(a, Y)");
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(answer->Contains(Tup("c"))) << answer->ToString();
    EXPECT_TRUE(hop->Contains(Tup(node, "c")));
    EXPECT_EQ(hop->index_rebuilds(), rebuilds) << "epoch " << snap.epoch();
    EXPECT_EQ(*hop, **(*vm)->maintainer().GetRelation("hop"));
  }
}

// An extent shared, untouched, between a pinned epoch N-1 and epoch N is
// not written by commit N+1: the pin on N-1 sends that commit to the copy.
TEST(SnapshotStressTest, ExtentSharedWithAPinnedEpochIsNotWritten) {
  auto vm = ViewManager::CreateFromText(
      "base a(X). base b(X). ca(X) :- a(X). cb(X) :- b(X).");
  ASSERT_TRUE(vm.ok());
  Database db;
  MustLoadFacts(&db, "a(1). b(1).");
  IVM_ASSERT_OK((*vm)->Initialize(db));

  Snapshot older = (*vm)->snapshot();  // epoch N-1, held throughout
  ChangeSet to_a;
  to_a.Insert("a", Tup(2));
  ASSERT_TRUE((*vm)->Apply(to_a).ok());  // epoch N touches a and ca only
  const Relation* b_older = *older.Get("b");
  const Relation* cb_older = *older.Get("cb");
  {
    Snapshot current = (*vm)->snapshot();
    EXPECT_EQ(*current.Get("b"), b_older);
    EXPECT_EQ(*current.Get("cb"), cb_older);
  }

  ChangeSet to_b;
  to_b.Insert("b", Tup(2));
  ASSERT_TRUE((*vm)->Apply(to_b).ok());  // epoch N+1 touches b and cb
  EXPECT_EQ(b_older->size(), 1u);
  EXPECT_FALSE(b_older->Contains(Tup(2)));
  EXPECT_FALSE(cb_older->Contains(Tup(2)));
  Snapshot newest = (*vm)->snapshot();
  EXPECT_NE(*newest.Get("cb"), cb_older);
  EXPECT_TRUE((*newest.Get("cb"))->Contains(Tup(2)));
  EXPECT_TRUE((*newest.Get("ca"))->Contains(Tup(2)));
}

}  // namespace
}  // namespace ivm
