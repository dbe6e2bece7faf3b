#include "txn/undo_log.h"

#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace ivm {

UndoLog::UndoLog(std::vector<Relation*> relations) {
  tracked_.reserve(relations.size());
  for (Relation* rel : relations) {
    IVM_CHECK(rel != nullptr);
    rel->set_undo_hook(this);
    tracked_.push_back(Tracked{rel, rel->overflowed(), rel->version()});
  }
}

UndoLog::~UndoLog() {
  // An open transaction at destruction means the caller unwound without
  // deciding; restoring the pre-state is the safe default.
  if (open_) Rollback();
}

void UndoLog::OnCountChange(Relation* rel, const Tuple& tuple,
                            int64_t old_count) {
  entries_.push_back(Entry{rel, tuple, old_count, nullptr});
}

void UndoLog::OnBulkReplace(Relation* rel, const CountMap& old_tuples) {
  entries_.push_back(
      Entry{rel, Tuple(), 0, std::make_unique<CountMap>(old_tuples)});
}

void UndoLog::Detach() {
  for (const Tracked& t : tracked_) t.rel->set_undo_hook(nullptr);
}

void UndoLog::Commit() {
  IVM_CHECK(open_) << "transaction already closed";
  open_ = false;
  Detach();
  entries_.clear();
}

void UndoLog::Rollback() {
  IVM_CHECK(open_) << "transaction already closed";
  open_ = false;
  // Detach first so the restoring mutations are not themselves recorded.
  Detach();
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    Entry& entry = *it;
    if (entry.bulk != nullptr) {
      entry.rel->Clear();
      for (const auto& [tuple, count] : *entry.bulk) {
        if (count != 0) entry.rel->Set(tuple, count);
      }
    } else {
      entry.rel->Set(entry.tuple, entry.old_count);
    }
  }
  for (const Tracked& t : tracked_) t.rel->set_overflowed(t.old_overflowed);
  entries_.clear();
}

std::optional<TxnNetChanges> UndoLog::NetChanges() const {
  TxnNetChanges out;
  out.reserve(tracked_.size());
  for (const Tracked& t : tracked_) out[t.rel].begin_version = t.begin_version;
  std::unordered_map<const Relation*, CountMap> first_pre_image;
  for (const Entry& entry : entries_) {
    if (entry.bulk != nullptr) {
      out[entry.rel].bulk = true;
    } else {
      first_pre_image[entry.rel].try_emplace(entry.tuple, entry.old_count);
    }
  }
  for (const auto& [rel, pre_images] : first_pre_image) {
    RelationNetChange& net = out[rel];
    if (net.bulk) continue;
    for (const auto& [tuple, old_count] : pre_images) {
      if (rel->Count(tuple) != old_count) net.tuples.push_back(tuple);
    }
  }
  return out;
}

std::unique_ptr<MaintainerTxn> BeginUndoTxn(std::vector<Relation*> relations) {
  return std::make_unique<UndoLog>(std::move(relations));
}

}  // namespace ivm
