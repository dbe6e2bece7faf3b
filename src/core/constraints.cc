#include "core/constraints.h"

namespace ivm {

Status ConstraintChecker::AddConstraint(const std::string& view_name,
                                        std::string message) {
  IVM_ASSIGN_OR_RETURN(PredicateId pred, manager_->program().Lookup(view_name));
  if (manager_->program().predicate(pred).is_base) {
    return Status::InvalidArgument("'" + view_name +
                                   "' is a base relation, not a view");
  }
  constraints_[view_name] = std::move(message);
  return Status::OK();
}

Status ConstraintChecker::CheckNow() {
  last_violations_.clear();
  // One pinned snapshot for the whole sweep: every constraint view is
  // checked against the same committed epoch, even if a writer commits
  // between iterations.
  Snapshot snap = manager_->snapshot();
  for (const auto& [view, message] : constraints_) {
    IVM_ASSIGN_OR_RETURN(const Relation* rel, snap.Get(view));
    if (rel->empty()) continue;
    Violation v;
    v.view = view;
    v.message = message;
    v.tuples = rel->SortedTuples();
    last_violations_.push_back(std::move(v));
  }
  if (last_violations_.empty()) return Status::OK();
  std::string summary = "integrity constraint violated:";
  for (const Violation& v : last_violations_) {
    summary += " [" + v.view + "] " + v.message + " (" +
               std::to_string(v.tuples.size()) + " tuples)";
  }
  return Status::FailedPrecondition(summary);
}

Result<ChangeSet> ConstraintChecker::ApplyChecked(
    const ChangeSet& base_changes) {
  // Compute the *effective* base delta against one pinned pre-Apply
  // snapshot, so the rollback is exact even when the input contains
  // redundant insertions (no-ops under set semantics) or multi-count
  // changes. Pinning closes the old torn-read window: the checker used to
  // read each relation live, so extents could shift under it between reads.
  const bool set_semantics = manager_->semantics() == Semantics::kSet;
  Snapshot before = manager_->snapshot();
  ChangeSet effective;
  for (const auto& [name, delta] : base_changes.deltas()) {
    IVM_ASSIGN_OR_RETURN(const Relation* stored, before.Get(name));
    for (const auto& [tuple, count] : delta.tuples()) {
      if (count > 0) {
        if (set_semantics) {
          if (!stored->Contains(tuple)) effective.Insert(name, tuple, 1);
        } else {
          effective.Insert(name, tuple, count);
        }
      } else if (count < 0) {
        if (set_semantics) {
          if (!stored->Contains(tuple)) {
            return Status::FailedPrecondition("deleting " + tuple.ToString() +
                                              " which is not in '" + name +
                                              "'");
          }
          effective.Delete(name, tuple, 1);
        } else {
          if (stored->Count(tuple) + count < 0) {
            return Status::FailedPrecondition(
                "deleting " + tuple.ToString() +
                " more times than stored in '" + name + "'");
          }
          effective.Delete(name, tuple, -count);
        }
      }
    }
  }

  before.Release();  // the effective delta is computed; don't hold the epoch
  IVM_ASSIGN_OR_RETURN(ChangeSet out, manager_->Apply(base_changes));

  last_violations_.clear();
  // Post-Apply check against the single epoch that Apply just published.
  Snapshot after = manager_->snapshot();
  for (const auto& [view, message] : constraints_) {
    IVM_ASSIGN_OR_RETURN(const Relation* rel, after.Get(view));
    if (rel->empty()) continue;
    Violation v;
    v.view = view;
    v.message = message;
    v.tuples = rel->SortedTuples();
    last_violations_.push_back(std::move(v));
  }
  after.Release();  // a held pin would make the rollback's commit copy
  if (last_violations_.empty()) return out;

  // Roll back: apply the inverse of the effective base delta (which by
  // construction contains only changes the maintainer actually made).
  ChangeSet inverse;
  for (const auto& [name, delta] : effective.deltas()) {
    for (const auto& [tuple, count] : delta.tuples()) {
      if (count > 0) {
        inverse.Delete(name, tuple, count);
      } else if (count < 0) {
        inverse.Insert(name, tuple, -count);
      }
    }
  }
  IVM_ASSIGN_OR_RETURN(ChangeSet undo_out, manager_->Apply(inverse));
  (void)undo_out;
  std::string summary = "integrity constraint violated (update rolled back):";
  for (const Violation& v : last_violations_) {
    summary += " [" + v.view + "] " + v.message + " (" +
               std::to_string(v.tuples.size()) + " tuples)";
  }
  return Status::FailedPrecondition(summary);
}

}  // namespace ivm
