#ifndef IVM_STORAGE_EPOCH_H_
#define IVM_STORAGE_EPOCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/relation.h"

namespace ivm {

/// One published extent of a relation, plus the identity of the
/// writer-side storage slot whose contents it holds. `source_uid`/
/// `source_version` form an opaque fingerprint the next publication uses
/// for change detection: a slot whose uid and modification counter both
/// match the previous publication is provably untouched (Relation::uid() is
/// unique per object lifetime — a destroyed-and-recreated slot at a reused
/// address can never be confused with its predecessor — and
/// Relation::version() is monotone per slot, bumping on every effective
/// mutation including rollbacks), so its extent is shared into the new
/// version as is.
struct PublishedExtent {
  std::shared_ptr<const Relation> extent;
  uint64_t source_uid = 0;
  uint64_t source_version = 0;
};

/// One in-place edit of a published extent: each of `tuples` takes its count
/// in the live slot `source` (0 erases it), and so does the overflow flag.
struct ExtentWrite {
  const Relation* extent;
  const Relation* source;
  const std::vector<Tuple>* tuples;
};

/// An epoch-stamped picture of every published relation. Once a version is
/// handed to EpochManager::Publish it is frozen for as long as any reader
/// pins it: readers may walk `extents` from any thread without
/// synchronization. Only EpochManager::PublishInPlace, with no pin
/// outstanding, writes into an extent again.
///
/// `payload` carries upper-layer context the storage layer is agnostic to
/// (the core layer stashes the program and semantics that produced these
/// extents, so a pinned snapshot can parse/plan queries against the exact
/// rule set of its epoch).
struct StorageVersion {
  /// Writer epoch (ViewManager mutation counter) this version materializes.
  uint64_t epoch = 0;
  std::map<std::string, PublishedExtent, std::less<>> extents;
  std::shared_ptr<const void> payload;
};

/// Epoch-based publication and reclamation of immutable storage versions,
/// under the single-writer / many-readers contract:
///
///   * exactly one thread calls Publish() (the maintenance orchestrator,
///     after each committed mutation);
///   * any thread may call Pin()/Unpin() concurrently with the writer and
///     with each other.
///
/// Pin() returns the current version and counts the caller as a reader of
/// it. Publish() retires the previous current version; a retired version is
/// dropped from the manager as soon as its pin count reaches zero (at
/// Publish time, or at the last Unpin). Extents are shared across versions
/// by shared_ptr, so dropping a version frees exactly the extents no other
/// live version (and no outstanding reader) still references — retired
/// state is reclaimed only after the last reader pins out, never under one.
///
/// Observability (null-safe, attach before threads start):
///   storage.epoch              gauge   epoch of the current version
///   storage.snapshots_pinned   gauge   outstanding pins, all versions
///   storage.retired_versions   gauge   retired versions still pinned
///   storage.extents_reclaimed  counter extents dropped with no surviving
///                                      version sharing them
class EpochManager {
 public:
  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Must be called before any concurrent use (the pointer itself is
  /// unsynchronized); the registry, when given, must outlive the manager.
  void AttachMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Writer side: makes `version` the current version, retires the
  /// previous one, and reclaims every retired version whose pin count
  /// already reached zero.
  void Publish(std::shared_ptr<StorageVersion> version) IVM_EXCLUDES(mu_);

  /// Writer side, in place: when no snapshot of any version is pinned,
  /// applies `writes` to their extents while holding the lock, then
  /// publishes `version` as Publish() does and returns true. No Pin() can
  /// start until the writes are done, so no reader sees a half-written
  /// extent; a Pin() that arrives meanwhile waits for them. When any
  /// snapshot is pinned, changes nothing and returns false (the caller
  /// publishes copies instead). Every written extent must be reachable only
  /// through versions this manager holds.
  bool PublishInPlace(std::shared_ptr<StorageVersion> version,
                      const std::vector<ExtentWrite>& writes)
      IVM_EXCLUDES(mu_);

  /// Reader side: returns the current version with its pin count bumped
  /// (nullptr before the first Publish — nothing to pin). Every successful
  /// Pin must be matched by exactly one Unpin on the same version.
  std::shared_ptr<const StorageVersion> Pin() IVM_EXCLUDES(mu_);

  /// Releases one pin. When this was the last pin of a *retired* version,
  /// the manager drops its reference — the version (and every extent only
  /// it holds) is freed once the caller drops theirs.
  void Unpin(const StorageVersion* version) IVM_EXCLUDES(mu_);

  /// Writer-side peek at the current version without pinning (the writer is
  /// the only thread that replaces it, so no pin is needed for its own
  /// read-modify-publish cycle).
  std::shared_ptr<const StorageVersion> Current() const IVM_EXCLUDES(mu_);

  /// Outstanding pins across all versions.
  int64_t pinned_snapshots() const IVM_EXCLUDES(mu_);

  /// Retired-but-still-pinned versions (the reclamation backlog).
  size_t retired_versions() const IVM_EXCLUDES(mu_);

  /// Total extents reclaimed so far (see class comment).
  uint64_t extents_reclaimed() const IVM_EXCLUDES(mu_);

 private:
  struct RetiredVersion {
    std::shared_ptr<const StorageVersion> version;
    int64_t pins = 0;
  };

  void PublishLocked(std::shared_ptr<StorageVersion> version)
      IVM_REQUIRES(mu_);

  /// Drops `version`'s manager reference, counting every extent no other
  /// live version shares as reclaimed.
  void ReclaimLocked(const std::shared_ptr<const StorageVersion>& version)
      IVM_REQUIRES(mu_);

  void UpdateGaugesLocked() IVM_REQUIRES(mu_);

  mutable Mutex mu_;
  std::shared_ptr<const StorageVersion> current_ IVM_GUARDED_BY(mu_);
  int64_t current_pins_ IVM_GUARDED_BY(mu_) = 0;
  std::vector<RetiredVersion> retired_ IVM_GUARDED_BY(mu_);
  int64_t total_pins_ IVM_GUARDED_BY(mu_) = 0;
  uint64_t extents_reclaimed_ IVM_GUARDED_BY(mu_) = 0;

  /// Set once before concurrent use; read from both sides thereafter.
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace ivm

#endif  // IVM_STORAGE_EPOCH_H_
