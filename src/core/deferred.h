#ifndef IVM_CORE_DEFERRED_H_
#define IVM_CORE_DEFERRED_H_

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/view_manager.h"

namespace ivm {

/// Deferred view maintenance. The paper's algorithms maintain views
/// *immediately* (each update propagates before the next); production
/// systems also offer deferred refresh, where base changes accumulate and
/// views are brought up to date on demand. This wrapper provides that mode
/// on top of any strategy:
///
///   DeferredViewManager dvm(std::move(manager));
///   dvm.Stage(changes1);          // cheap: just buffered (⊎-merged)
///   dvm.Stage(changes2);
///   ...
///   ChangeSet deltas = dvm.Refresh().value();   // one maintenance pass
///
/// Staging ⊎-merges batches, so an insert staged after a staged delete of
/// the same tuple cancels before any maintenance work happens — deferral
/// can *reduce* total work when changes churn.
///
/// Reads through snapshot() see the extents as of the last Refresh (stale
/// reads are the contract of deferred maintenance); call RefreshIfDirty()
/// first when freshness is required.
class DeferredViewManager {
 public:
  explicit DeferredViewManager(std::unique_ptr<ViewManager> inner)
      : inner_(std::move(inner)) {}

  Status Initialize(const Database& base) { return inner_->Initialize(base); }

  /// Buffers base changes without maintaining anything. Validation against
  /// the stored extents happens at Refresh time.
  void Stage(const ChangeSet& changes) {
    for (const auto& [name, delta] : changes.deltas()) {
      staged_.Merge(name, delta);
    }
  }

  bool dirty() const { return !staged_.empty(); }
  size_t staged_tuples() const { return staged_.TotalTuples(); }

  /// Applies everything staged in one maintenance pass; returns the view
  /// changes. On error the staged buffer is preserved so the caller can
  /// inspect or amend it.
  Result<ChangeSet> Refresh() {
    if (staged_.empty()) return ChangeSet();
    IVM_ASSIGN_OR_RETURN(ChangeSet out, inner_->Apply(staged_));
    staged_ = ChangeSet();
    return out;
  }

  Status RefreshIfDirty() {
    if (!dirty()) return Status::OK();
    return Refresh().status();
  }

  /// Discards everything staged since the last Refresh.
  void DiscardStaged() { staged_ = ChangeSet(); }

  /// Stale read surface: a pinned snapshot of the state as of the last
  /// Refresh (staged-but-unapplied changes are invisible, by design).
  Snapshot snapshot() const { return inner_->snapshot(); }

  /// The currently staged (not yet applied) base delta for `name`.
  const Relation& StagedDelta(const std::string& name) const {
    return staged_.Delta(name);
  }

  ViewManager& inner() { return *inner_; }

 private:
  std::unique_ptr<ViewManager> inner_;
  ChangeSet staged_;
};

}  // namespace ivm

#endif  // IVM_CORE_DEFERRED_H_
