#ifndef IVM_CORE_VIEW_MANAGER_H_
#define IVM_CORE_VIEW_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/change_set.h"
#include "core/counting.h"
#include "core/dred.h"
#include "core/higher_order.h"
#include "core/maintainer.h"
#include "core/pf.h"
#include "core/recompute.h"
#include "core/recursive_counting.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "datalog/program.h"
#include "eval/evaluator.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "storage/epoch.h"
#include "txn/txn.h"
#include "txn/wal.h"

namespace ivm {

/// The top-level facade: owns the view definitions (a Datalog program, or
/// SQL translated into one — see sql/sql_translator.h), the snapshot of the
/// base relations, and the materialized views; dispatches maintenance to the
/// chosen strategy.
///
/// Every mutation (Apply, AddRule, RemoveRule) is *transactional*: the
/// maintainer's state is staged under a transaction (txn/txn.h) and committed
/// only after the strategy finishes, the post-conditions hold (no negative
/// view counts under set semantics, no count overflow), every subscribed
/// trigger ran without throwing, and — when durability is enabled — the
/// operation is fsync'd to the write-ahead log. Any failure along the way
/// rolls the manager back to its exact pre-call state.
///
/// Typical use:
///
///   auto program = ParseProgram(
///       "base link(S, D). "
///       "hop(X, Y) :- link(X, Z) & link(Z, Y).").value();
///   Database db;
///   db.CreateRelation("link", 2).CheckOK();
///   db.mutable_relation("link").Add(Tup("a", "b"));
///   ...
///   ViewManager::Options options;
///   options.strategy = Strategy::kAuto;
///   auto manager = ViewManager::Create(std::move(program), options).value();
///   manager->Initialize(db).CheckOK();
///   ChangeSet changes;
///   changes.Delete("link", Tup("a", "b"));
///   ChangeSet view_changes = manager->Apply(changes).value();
///   Snapshot snap = manager->snapshot();          // thread-safe, cheap
///   const Relation& hop = **snap.Get("hop");      // immutable at this epoch
///
/// Concurrency contract (docs/concurrency.md): mutations are single-writer —
/// at most one thread calls Apply/AddRule/RemoveRule/Checkpoint at a time —
/// but snapshot() may be called from any number of threads concurrently with
/// the writer. Each committed mutation atomically publishes a new
/// epoch-stamped version of every relation: untouched relations are shared
/// with the previous version, and a touched one gets the mutation's net
/// changes written into its published extent when no snapshot is pinned,
/// or is copied when one is. A pinned Snapshot keeps reading its own epoch,
/// untouched, for as long as it is held.
class ViewManager {
 public:
  /// Construction-time configuration. Replaces the positional-argument tail
  /// that Create() had been accreting (strategy, semantics, ...): new knobs
  /// land here without touching every caller.
  struct Options {
    /// Maintenance strategy; kAuto follows the paper's recommendation
    /// (counting for nonrecursive programs, DRed for recursive ones).
    Strategy strategy = Strategy::kAuto;
    /// Applies to kCounting/kRecompute; kDRed and kPF are set-semantics by
    /// definition (Section 7), kRecursiveCounting is always kDuplicate.
    Semantics semantics = Semantics::kSet;
    /// When non-empty, durability is enabled on this directory as soon as
    /// Initialize() succeeds (equivalent to calling EnableDurability(dir)
    /// then). A later explicit EnableDurability() with a *different*
    /// directory is a FailedPrecondition error, never a silent override.
    std::string durability_dir;
    /// Optional observability sink (not owned; must outlive the manager).
    /// When null — the default — the maintenance pipeline runs with zero
    /// observability overhead: no counters, no clock reads, no allocations.
    MetricsRegistry* metrics = nullptr;
    /// Parallel delta evaluation (docs/parallelism.md). The default
    /// (threads = 1) keeps the serial path; threads = 0 uses the hardware
    /// concurrency. Supported by counting, recursive counting, DRed, and
    /// recompute; requesting threads != 1 with kPF is an InvalidArgument
    /// error (PF replays deletions one at a time and cannot fan out).
    /// Parallel and serial maintenance produce identical view contents.
    ExecutorOptions executor;
  };

  static Result<std::unique_ptr<ViewManager>> Create(Program program,
                                                     const Options& options);
  /// Default options: kAuto strategy, set semantics, serial execution.
  static Result<std::unique_ptr<ViewManager>> Create(Program program) {
    return Create(std::move(program), Options());
  }

  /// Convenience: parse a Datalog program text first.
  static Result<std::unique_ptr<ViewManager>> CreateFromText(
      const std::string& program_text, const Options& options);
  static Result<std::unique_ptr<ViewManager>> CreateFromText(
      const std::string& program_text) {
    return CreateFromText(program_text, Options());
  }

  /// Rebuilds a manager from `dir` (see docs/recovery.md): loads the newest
  /// complete checkpoint, re-creates the maintainer from the stored program /
  /// strategy / semantics, verifies the recomputed views against the stored
  /// ones, replays the WAL tail (committed records with epoch beyond the
  /// checkpoint; a torn trailing record is skipped), and re-enables
  /// durability on `dir`. `metrics`, when given, observes both the replay
  /// and the recovered manager's subsequent life.
  ///
  /// `executor` configures the recovered manager's parallelism. It is NOT
  /// persisted in the checkpoint — it is a machine-local tuning knob (the
  /// recovering host may have a different core count), so the caller
  /// re-supplies it; the default keeps the serial path. The same validation
  /// as Create applies: parallel threads with a checkpointed kPF strategy is
  /// an InvalidArgument error. Parallel and serial recovery rebuild
  /// identical state.
  static Result<std::unique_ptr<ViewManager>> Recover(
      const std::string& dir, MetricsRegistry* metrics = nullptr,
      const ExecutorOptions& executor = ExecutorOptions());

  /// Snapshots the base relations and materializes every view. When the
  /// manager was created with Options::durability_dir, durability is enabled
  /// on that directory before this returns.
  Status Initialize(const Database& base);

  /// Makes every subsequent committed mutation durable: appends it to
  /// `dir`/wal.log (fsync'd before Apply returns) so Recover(dir) can replay
  /// it. Writes an initial checkpoint of the current state when `dir` holds
  /// none, so recovery always has a base snapshot to start from. Requires an
  /// initialized manager.
  ///
  /// Idempotent on the directory durability is already active on; a
  /// *different* directory (already active, or configured via
  /// Options::durability_dir) is a FailedPrecondition error.
  Status EnableDurability(const std::string& dir);

  /// Snapshots the full current state into `dir`'s checkpoint and truncates
  /// the WAL (its records are absorbed). Requires EnableDurability().
  Status Checkpoint();

  /// Number of committed mutations (each Apply/AddRule/RemoveRule that
  /// commits bumps it; rolled-back calls do not).
  uint64_t epoch() const { return epoch_; }

  /// Applies base-relation changes; returns the induced view changes
  /// (insertions positive, deletions negative). Subscribed triggers fire
  /// before this returns; if one throws, the whole Apply rolls back and the
  /// exception is reported as an error Status.
  Result<ChangeSet> Apply(const ChangeSet& base_changes);

  /// Move form: when durability is off, strategies that ingest base deltas
  /// wholesale (counting, recursive counting) move them out of `base_changes`
  /// instead of copying. With durability enabled this falls back to the
  /// copying path — the WAL record is serialized from `base_changes` at
  /// commit time, after maintenance has consumed it.
  Result<ChangeSet> Apply(ChangeSet&& base_changes);

  /// Active-database hook (one of the paper's motivating applications:
  /// "a rule may fire when a particular tuple is inserted into a view").
  /// The callback runs after every Apply/AddRule/RemoveRule that changes
  /// `view`, receiving the view's delta.
  using ViewTrigger =
      std::function<void(const std::string& view, const Relation& delta)>;

  /// Move-only RAII handle for a view trigger: the trigger stays registered
  /// for the handle's lifetime and is unsubscribed on destruction (or an
  /// explicit Unsubscribe()). Must not outlive its ViewManager.
  class [[nodiscard]] Subscription {
   public:
    Subscription() = default;
    Subscription(Subscription&& other) noexcept
        : manager_(std::exchange(other.manager_, nullptr)),
          id_(std::exchange(other.id_, 0)) {}
    Subscription& operator=(Subscription&& other) noexcept {
      if (this != &other) {
        Unsubscribe();
        manager_ = std::exchange(other.manager_, nullptr);
        id_ = std::exchange(other.id_, 0);
      }
      return *this;
    }
    ~Subscription() { Unsubscribe(); }

    /// Deregisters the trigger now; idempotent.
    void Unsubscribe() {
      if (manager_ != nullptr) manager_->UnsubscribeId(id_);
      manager_ = nullptr;
    }

    bool active() const { return manager_ != nullptr; }
    int id() const { return id_; }

   private:
    friend class ViewManager;
    Subscription(ViewManager* manager, int id) : manager_(manager), id_(id) {}

    ViewManager* manager_ = nullptr;
    int id_ = 0;
  };

  /// Registers `trigger` for `view`; the returned handle owns the
  /// registration.
  Subscription Watch(const std::string& view, ViewTrigger trigger);

  /// Pins the latest committed epoch and returns a read handle over it.
  /// Cheap (one refcount bump under a short lock, no data copied) and safe
  /// to call from any thread, concurrently with the single writer. A call
  /// that overlaps an in-place publication waits for it, O(net changed
  /// tuples). Requires Initialize(); before that the returned handle is
  /// invalid (its accessors return FailedPrecondition).
  Snapshot snapshot() const;

  /// View redefinition (Section 7): only supported by the DRed strategy.
  Result<ChangeSet> AddRule(const Rule& rule);
  Result<ChangeSet> AddRuleText(const std::string& rule_text);
  Result<ChangeSet> RemoveRule(int rule_index);

  const Program& program() const { return impl_->program(); }
  Strategy strategy() const { return strategy_; }
  /// The view semantics this manager maintains under (kDRed/kPF are always
  /// kSet; kRecursiveCounting is always kDuplicate).
  Semantics semantics() const { return semantics_; }
  /// The concrete maintainer (e.g. for strategy-specific accessors).
  Maintainer& maintainer() { return *impl_; }
  /// The evaluation engine, exposing the resolved executor configuration
  /// (threads() == 1 means the serial path). Always non-null.
  const Executor& executor() const { return *executor_; }
  /// The attached observability sink (null when none was configured).
  MetricsRegistry* metrics() const { return metrics_; }

 private:
  ViewManager(std::unique_ptr<Maintainer> impl, Strategy strategy,
              Semantics semantics)
      : impl_(std::move(impl)), strategy_(strategy), semantics_(semantics) {}

  /// Shared EnableDurability body, after the directory-conflict checks.
  Status OpenDurability(const std::string& dir);

  /// Publishes the maintainer's current state as a new epoch version
  /// (storage/epoch.h). An extent whose source slot and slot version match
  /// the previous publication is shared as is. A changed relation whose
  /// every edit since then is in `net` (the committed transaction's net
  /// changes) has those tuples written into its published extent in place,
  /// which keeps the extent's indexes warm — unless a snapshot is pinned.
  /// Every other changed relation, and all of them when `net` is null
  /// (bulk replacements: Initialize, Recover, recompute, rule changes), is
  /// deep-copied.
  void PublishSnapshot(const TxnNetChanges* net);

  /// Rule-change commit tail: rebuilds the reader context (new program) and
  /// republishes, copying every relation the change touched.
  void RepublishAfterRuleChange();

  /// Deregistration core shared by Subscription and the deprecated
  /// Unsubscribe(int) wrapper.
  void UnsubscribeId(int subscription_id);

  /// Shared Apply body; when `take_from` is non-null the maintainer may
  /// cannibalize its deltas (move path, durability off).
  Result<ChangeSet> ApplyImpl(const ChangeSet& base_changes,
                              ChangeSet* take_from);

  /// Commit-time invariants, checked before the transaction commits:
  /// no touched relation overflowed its counts, and under set semantics no
  /// touched relation holds a negative count (Lemma 4.1). With `net`, only
  /// the tuples it lists are checked for a negative count; a relation it
  /// has no per-tuple record of is scanned in full.
  Status CheckPostConditions(const ChangeSet& base_changes,
                             const ChangeSet& view_changes,
                             const TxnNetChanges* net) const;

  /// Dispatches `view_changes` to every subscription. A throwing trigger is
  /// converted into an error Status (and the caller rolls back).
  Status FireTriggers(const ChangeSet& view_changes);

  /// The commit point: appends the WAL record for the next epoch (a no-op
  /// without durability) and advances the epoch.
  Status CommitDurable(const std::function<Status(uint64_t)>& append);

  /// Shared Apply/AddRule/RemoveRule tail: post-conditions, triggers,
  /// durable commit; rolls `txn` back on any failure, commits otherwise.
  /// `net` is `txn`'s net changes, when it records them.
  Status FinishMutation(MaintainerTxn* txn, const ChangeSet& base_changes,
                        const ChangeSet& view_changes,
                        const TxnNetChanges* net,
                        const std::function<Status(uint64_t)>& append);

  /// The parallel evaluation engine; always non-null (serial when
  /// Options::executor.threads resolves to 1). Declared before impl_ so it
  /// outlives the maintainer, which holds a raw pointer to it.
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<Maintainer> impl_;
  Strategy strategy_;
  Semantics semantics_;
  struct TriggerEntry {
    std::string view;
    ViewTrigger trigger;
  };
  std::map<int, TriggerEntry> subscriptions_;
  int next_subscription_id_ = 1;

  /// Directory requested via Options::durability_dir (pending until
  /// Initialize()); empty when construction did not configure durability.
  std::string configured_durable_dir_;
  std::string durable_dir_;
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t epoch_ = 0;
  MetricsRegistry* metrics_ = nullptr;

  /// The epoch-versioned publication chain read by snapshot(). Mutable so
  /// snapshot() stays const; EpochManager is internally synchronized.
  mutable EpochManager epochs_;
  /// Program + semantics captured for readers; shared across versions and
  /// rebuilt only on rule changes.
  std::shared_ptr<const SnapshotContext> context_;
};

}  // namespace ivm

#endif  // IVM_CORE_VIEW_MANAGER_H_
