#include "storage/epoch.h"

#include <utility>

#include "common/logging.h"

namespace ivm {

void EpochManager::Publish(std::shared_ptr<StorageVersion> version) {
  IVM_CHECK(version != nullptr) << "Publish(nullptr)";
  MutexLock lock(&mu_);
  PublishLocked(std::move(version));
}

bool EpochManager::PublishInPlace(std::shared_ptr<StorageVersion> version,
                                  const std::vector<ExtentWrite>& writes) {
  IVM_CHECK(version != nullptr) << "PublishInPlace(nullptr)";
  MutexLock lock(&mu_);
  if (total_pins_ != 0) return false;
  for (const ExtentWrite& write : writes) {
    // Extents are immutable only while a reader can reach them. With no pin
    // outstanding none can, and none can pin until the lock is released.
    auto* extent = const_cast<Relation*>(write.extent);
    for (const Tuple& tuple : *write.tuples) {
      extent->Set(tuple, write.source->Count(tuple));
    }
    extent->set_overflowed(write.source->overflowed());
  }
  PublishLocked(std::move(version));
  return true;
}

void EpochManager::PublishLocked(std::shared_ptr<StorageVersion> version) {
  std::shared_ptr<const StorageVersion> previous = std::move(current_);
  current_ = std::move(version);
  if (previous != nullptr) {
    if (current_pins_ == 0) {
      ReclaimLocked(previous);
    } else {
      retired_.push_back(RetiredVersion{std::move(previous), current_pins_});
    }
  }
  current_pins_ = 0;
  if (metrics_ != nullptr) {
    metrics_->gauge("storage.epoch")
        ->Set(static_cast<int64_t>(current_->epoch));
  }
  UpdateGaugesLocked();
}

std::shared_ptr<const StorageVersion> EpochManager::Pin() {
  MutexLock lock(&mu_);
  if (current_ == nullptr) return nullptr;
  ++current_pins_;
  ++total_pins_;
  if (metrics_ != nullptr) {
    metrics_->gauge("storage.snapshots_pinned")->Set(total_pins_);
  }
  return current_;
}

void EpochManager::Unpin(const StorageVersion* version) {
  MutexLock lock(&mu_);
  IVM_CHECK(version != nullptr) << "Unpin(nullptr)";
  --total_pins_;
  IVM_CHECK(total_pins_ >= 0) << "more Unpins than Pins";
  if (current_ != nullptr && current_.get() == version) {
    --current_pins_;
    IVM_CHECK(current_pins_ >= 0) << "current version over-unpinned";
    UpdateGaugesLocked();
    return;
  }
  for (size_t i = 0; i < retired_.size(); ++i) {
    if (retired_[i].version.get() != version) continue;
    if (--retired_[i].pins == 0) {
      ReclaimLocked(retired_[i].version);
      retired_.erase(retired_.begin() + static_cast<ptrdiff_t>(i));
    }
    UpdateGaugesLocked();
    return;
  }
  IVM_CHECK(false) << "Unpin of a version this manager never published "
                      "(or already fully unpinned)";
}

std::shared_ptr<const StorageVersion> EpochManager::Current() const {
  MutexLock lock(&mu_);
  return current_;
}

int64_t EpochManager::pinned_snapshots() const {
  MutexLock lock(&mu_);
  return total_pins_;
}

size_t EpochManager::retired_versions() const {
  MutexLock lock(&mu_);
  return retired_.size();
}

uint64_t EpochManager::extents_reclaimed() const {
  MutexLock lock(&mu_);
  return extents_reclaimed_;
}

void EpochManager::ReclaimLocked(
    const std::shared_ptr<const StorageVersion>& version) {
  // An extent whose use_count is 1 here is referenced by `version` alone:
  // no other live StorageVersion shares it (readers reference versions, not
  // individual extents), so dropping the manager's version reference
  // schedules it for destruction — immediately when no reader still holds
  // the version, or when the last reader drops its handle.
  uint64_t freed = 0;
  for (const auto& [name, published] : version->extents) {
    (void)name;
    if (published.extent.use_count() == 1) ++freed;
  }
  extents_reclaimed_ += freed;
  if (metrics_ != nullptr && freed > 0) {
    metrics_->counter("storage.extents_reclaimed")->Add(freed);
  }
}

void EpochManager::UpdateGaugesLocked() {
  if (metrics_ == nullptr) return;
  metrics_->gauge("storage.snapshots_pinned")->Set(total_pins_);
  metrics_->gauge("storage.retired_versions")
      ->Set(static_cast<int64_t>(retired_.size()));
}

}  // namespace ivm
