#ifndef IVM_TXN_UNDO_LOG_H_
#define IVM_TXN_UNDO_LOG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/relation.h"
#include "txn/txn.h"

namespace ivm {

/// Undo log over a fixed set of relations: attaches itself as the
/// RelationUndoHook of every tracked relation and records per-tuple
/// pre-images (old counts) and bulk pre-images (whole contents before a
/// Clear/assignment). Rollback replays the log in reverse, restoring every
/// tracked relation — including its overflow flag — to its exact state at
/// attach time. The cost of a transaction is proportional to the number of
/// count edits, never to the size of the database (the same Δ-proportional
/// bound the paper proves for maintenance work itself, Theorem 4.1).
class UndoLog : public RelationUndoHook, public MaintainerTxn {
 public:
  /// Attaches to `relations`; each must not already carry a hook.
  explicit UndoLog(std::vector<Relation*> relations);
  ~UndoLog() override;

  // RelationUndoHook:
  void OnCountChange(Relation* rel, const Tuple& tuple,
                     int64_t old_count) override;
  void OnBulkReplace(Relation* rel, const CountMap& old_tuples) override;

  // MaintainerTxn:
  void Commit() override;
  void Rollback() override;
  /// Dedupes the log: per (slot, tuple) the first pre-image is the count at
  /// begin, and the tuple is kept when the live count now differs from it.
  std::optional<TxnNetChanges> NetChanges() const override;

  /// Number of recorded pre-images (for tests/diagnostics).
  size_t size() const { return entries_.size(); }

 private:
  void Detach();

  struct Entry {
    Relation* rel;
    /// Per-tuple pre-image when `bulk` is null; otherwise a whole-relation
    /// pre-image.
    Tuple tuple;
    int64_t old_count = 0;
    std::unique_ptr<CountMap> bulk;
  };

  struct Tracked {
    Relation* rel;
    bool old_overflowed;
    uint64_t begin_version;
  };

  std::vector<Tracked> tracked_;
  std::vector<Entry> entries_;
  bool open_ = true;
};

/// Convenience: begin an undo-log transaction over `relations`.
std::unique_ptr<MaintainerTxn> BeginUndoTxn(std::vector<Relation*> relations);

}  // namespace ivm

#endif  // IVM_TXN_UNDO_LOG_H_
