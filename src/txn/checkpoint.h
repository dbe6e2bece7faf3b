#ifndef IVM_TXN_CHECKPOINT_H_
#define IVM_TXN_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/relation.h"

namespace ivm {

/// The manager-level facts a checkpoint records besides its relations.
struct CheckpointMeta {
  /// Epoch of the last committed operation folded into this snapshot; WAL
  /// replay resumes after it.
  uint64_t epoch = 0;
  std::string strategy;       // StrategyName() of the manager's strategy
  std::string semantics;      // "set" or "duplicate"
  std::string program_text;   // Program::ToString(); re-parsed on recovery
};

/// A durable snapshot of one ViewManager: the program, the chosen strategy
/// and semantics, the base-relation snapshot, and the materialized views
/// (all with counts). Together with the WAL tail (records with epoch >
/// checkpoint epoch) this reconstructs the manager exactly. ReadCheckpoint
/// returns one, owning its relations.
struct CheckpointData : CheckpointMeta {
  std::map<std::string, Relation> base;
  std::map<std::string, Relation> views;
};

/// What WriteCheckpoint serializes: the same contents with the relations
/// borrowed, so writing one copies none. They must stay alive and unchanged
/// for the call (ViewManager points them into a pinned snapshot).
struct CheckpointSource : CheckpointMeta {
  std::map<std::string, const Relation*> base;
  std::map<std::string, const Relation*> views;
};

/// On-disk layout under `dir`:
///
///   dir/checkpoint/MANIFEST          epoch, strategy, semantics, program,
///                                    relation index (written last: its
///                                    presence marks the snapshot complete)
///   dir/checkpoint/base_<name>.csv   counted CSV via storage/io
///   dir/checkpoint/view_<name>.csv
///   dir/checkpoint.tmp/              staging area while writing
///   dir/checkpoint.old/              previous snapshot during the swap
///
/// WriteCheckpoint stages into checkpoint.tmp, then swaps: checkpoint ->
/// checkpoint.old, checkpoint.tmp -> checkpoint, delete checkpoint.old. A
/// crash at any point leaves either the old or the new snapshot readable.
/// `metrics`, when given, records the staging (`checkpoint.write`) and
/// publish (`checkpoint.swap`) phases as spans plus the
/// `checkpoint.bytes_staged` counter.
Status WriteCheckpoint(const std::string& dir, const CheckpointSource& data,
                       MetricsRegistry* metrics = nullptr);
/// Writes an owned CheckpointData (borrowing its relations).
Status WriteCheckpoint(const std::string& dir, const CheckpointData& data,
                       MetricsRegistry* metrics = nullptr);

/// Loads the newest complete snapshot (falling back to checkpoint.old when
/// the swap was interrupted). NotFound when `dir` holds no checkpoint.
Result<CheckpointData> ReadCheckpoint(const std::string& dir);

}  // namespace ivm

#endif  // IVM_TXN_CHECKPOINT_H_
