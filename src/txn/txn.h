#ifndef IVM_TXN_TXN_H_
#define IVM_TXN_TXN_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/tuple.h"

namespace ivm {

class Relation;

/// What one transaction did to one relation slot, net of intermediate
/// edits (DRed's over-delete followed by rederivation leaves no trace).
struct RelationNetChange {
  /// Relation::version() of the slot when the transaction began.
  uint64_t begin_version = 0;
  /// The slot was replaced wholesale (Clear or assignment): its changes are
  /// not known tuple by tuple and `tuples` is empty.
  bool bulk = false;
  /// Every tuple whose count now differs from its count at begin, once.
  std::vector<Tuple> tuples;
};

/// Net changes keyed by relation slot; a slot the transaction does not
/// track has no entry.
using TxnNetChanges = std::unordered_map<const Relation*, RelationNetChange>;

/// Rollback handle for one in-flight maintenance operation. Obtained from
/// Maintainer::BeginTxn() before the mutation starts; exactly one of
/// Commit() or Rollback() must be called before destruction.
///
///   * Rollback() restores the maintainer to its state at BeginTxn() —
///     contents, counts, and overflow flags byte-identical.
///   * Commit() discards the recorded pre-images and detaches any hooks.
///
/// Destroying an open transaction rolls it back (abort-on-unwind safety).
class MaintainerTxn {
 public:
  virtual ~MaintainerTxn() = default;
  virtual void Commit() = 0;
  virtual void Rollback() = 0;

  /// The net effect so far on every slot the transaction tracks; call
  /// before Commit(). Empty for transactions that snapshot whole state
  /// instead of logging edits, which cannot tell tuple by tuple.
  virtual std::optional<TxnNetChanges> NetChanges() const {
    return std::nullopt;
  }
};

}  // namespace ivm

#endif  // IVM_TXN_TXN_H_
