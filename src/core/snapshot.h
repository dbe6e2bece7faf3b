#ifndef IVM_CORE_SNAPSHOT_H_
#define IVM_CORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "eval/evaluator.h"
#include "obs/metrics.h"
#include "storage/epoch.h"
#include "storage/relation.h"

namespace ivm {

/// The context a publication captures alongside its extents: the exact rule
/// set and semantics that produced them. Shared across versions by
/// shared_ptr and replaced only by rule changes, so per-Apply publication
/// never copies the program.
struct SnapshotContext {
  Program program;
  Semantics semantics = Semantics::kSet;
};

/// A pinned, immutable, epoch-stamped view of a ViewManager's state — the
/// read surface of the concurrent serving tier (docs/concurrency.md).
///
/// Obtained from ViewManager::snapshot(), which is cheap (one mutex-guarded
/// refcount bump, no copying) and safe to call from any thread, concurrently
/// with the writer's Apply/AddRule/RemoveRule. Everything read through the
/// handle — Get(), Query(), Explain() — observes exactly the state of one
/// committed epoch: contents never change while the snapshot is held, no
/// matter how many mutations commit meanwhile. Retired state stays allocated
/// only until the last snapshot pinning it is released (epoch-based
/// reclamation; hold snapshots briefly on hot paths).
///
/// The handle is move-only RAII: destruction (or an explicit Release())
/// unpins. It must not outlive its ViewManager. Pointers returned by Get()
/// are valid, and their contents fixed, only while the snapshot is alive:
/// once no snapshot is pinned, the very next commit may write its changes
/// into the same extents in place. Keep the snapshot for as long as the
/// pointers are used.
///
/// A snapshot() call that overlaps such an in-place commit waits for it;
/// the wait is proportional to the tuples the commit changed.
///
/// A default-constructed (or released/moved-from) handle is invalid:
/// accessors that need state return FailedPrecondition.
class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(Snapshot&& other) noexcept
      : epochs_(std::exchange(other.epochs_, nullptr)),
        version_(std::move(other.version_)),
        metrics_(std::exchange(other.metrics_, nullptr)),
        pin_start_ns_(other.pin_start_ns_) {
    other.version_.reset();
  }
  Snapshot& operator=(Snapshot&& other) noexcept {
    if (this != &other) {
      Release();
      epochs_ = std::exchange(other.epochs_, nullptr);
      version_ = std::move(other.version_);
      other.version_.reset();
      metrics_ = std::exchange(other.metrics_, nullptr);
      pin_start_ns_ = other.pin_start_ns_;
    }
    return *this;
  }
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot() { Release(); }

  /// Unpins now; idempotent. Ends the `snapshot.pin` span.
  void Release();

  /// A pinned, readable snapshot (false for default-constructed, released,
  /// or moved-from handles).
  bool valid() const { return version_ != nullptr; }

  /// The writer epoch this snapshot materializes: the number of committed
  /// mutations folded into its contents.
  uint64_t epoch() const { return version_ == nullptr ? 0 : version_->epoch; }

  /// The extent of a view or base-relation snapshot at this epoch. The
  /// pointee is immutable and lives at least as long as the snapshot.
  Result<const Relation*> Get(std::string_view name) const;

  /// Names of every relation this snapshot holds, sorted.
  std::vector<std::string> RelationNames() const;

  /// The program whose views these extents materialize (the rule set as of
  /// this epoch — rule changes publish a new context). Requires valid().
  const Program& program() const { return context().program; }
  Semantics semantics() const { return context().semantics; }

  /// One-shot ad-hoc query against this snapshot's extents — a full rule
  /// ("ans(X) :- hop(a, X).") or a bare body ("hop(a, X), link(X, Y)");
  /// see core/query.h for the accepted forms. Runs through the same
  /// index-backed join engine as maintenance, entirely on pinned state:
  /// safe to call from many threads concurrently with the writer.
  Result<Relation> Query(const std::string& query) const;

  /// Maintenance-structure report for this snapshot's program (strata, RSNs,
  /// delta rules — see core/explain.h).
  Result<std::string> Explain() const;
  /// The delta program only (one line per delta rule).
  Result<std::string> ExplainDelta() const;

 private:
  friend class ViewManager;
  Snapshot(EpochManager* epochs, std::shared_ptr<const StorageVersion> version,
           MetricsRegistry* metrics);

  const SnapshotContext& context() const {
    return *static_cast<const SnapshotContext*>(version_->payload.get());
  }

  EpochManager* epochs_ = nullptr;
  std::shared_ptr<const StorageVersion> version_;
  MetricsRegistry* metrics_ = nullptr;
  uint64_t pin_start_ns_ = 0;
};

}  // namespace ivm

#endif  // IVM_CORE_SNAPSHOT_H_
