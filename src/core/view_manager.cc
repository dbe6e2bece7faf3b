#include "core/view_manager.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <optional>
#include <utility>

#include "analysis/advisor.h"
#include "datalog/parser.h"
#include "obs/trace.h"
#include "txn/checkpoint.h"
#include "txn/failpoint.h"

namespace ivm {

namespace {

Result<Strategy> StrategyFromName(const std::string& name) {
  for (Strategy s :
       {Strategy::kCounting, Strategy::kDRed, Strategy::kRecompute,
        Strategy::kPF, Strategy::kRecursiveCounting, Strategy::kHigherOrder}) {
    if (name == StrategyName(s)) return s;
  }
  return Status::InvalidArgument("unknown strategy name '" + name + "'");
}

}  // namespace

Result<std::unique_ptr<ViewManager>> ViewManager::Create(
    Program program, const Options& options) {
  IVM_RETURN_IF_ERROR(program.Analyze());

  // Let the strategy advisor explain *why* a (strategy, semantics) pair is
  // invalid for this program — which views are recursive, which paper
  // precondition is violated, and what to use instead — rather than
  // reporting a bare pass/fail.
  AnalysisReport strategy_report =
      CheckStrategyChoice(program, options.strategy, options.semantics);
  if (strategy_report.HasErrors()) {
    std::string msg = "strategy precondition violated:";
    for (const Diagnostic& d : strategy_report.diagnostics()) {
      if (d.severity != DiagSeverity::kError) continue;
      msg += "\n  " + d.ToString();
    }
    return Status::FailedPrecondition(std::move(msg));
  }

  Strategy resolved = options.strategy;
  if (resolved == Strategy::kAuto) {
    // The advisor's measured recommendation: counting for nonrecursive
    // views, DRed for recursive ones. Deliberately NOT the semantics-aware
    // overload — kAuto with duplicate semantics on a recursive program was
    // already rejected by CheckStrategyChoice above, so recursive counting
    // (Section 8) must be requested explicitly.
    resolved = AdviseStrategy(program).recommended;
  }

  // The single authoritative executor/strategy check. Every strategy except
  // PF routes its delta rules through RunJoinTasks (or the ambient pool), so
  // any thread count is usable; PF replays the DRed core one deletion at a
  // time and cannot fan out — an explicit parallel request there is a
  // contradiction, not a silent no-op.
  if (options.executor.threads != 1 && resolved == Strategy::kPF) {
    return Status::InvalidArgument(
        "executor.threads requests parallel maintenance, but the pf strategy "
        "evaluates one deletion at a time and cannot use a worker pool; drop "
        "Options::executor or choose counting/dred/recompute");
  }
  IVM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> executor,
                       Executor::Make(options.executor));

  // The semantics the chosen maintainer actually runs under.
  Semantics effective_semantics = options.semantics;
  if (resolved == Strategy::kDRed || resolved == Strategy::kPF) {
    effective_semantics = Semantics::kSet;
  } else if (resolved == Strategy::kRecursiveCounting) {
    effective_semantics = Semantics::kDuplicate;
  }

  std::unique_ptr<Maintainer> impl;
  switch (resolved) {
    case Strategy::kCounting: {
      IVM_ASSIGN_OR_RETURN(auto m, CountingMaintainer::Create(
                                       std::move(program), options.semantics));
      impl = std::move(m);
      break;
    }
    case Strategy::kDRed: {
      IVM_ASSIGN_OR_RETURN(auto m, DRedMaintainer::Create(std::move(program)));
      impl = std::move(m);
      break;
    }
    case Strategy::kRecompute: {
      IVM_ASSIGN_OR_RETURN(auto m, RecomputeMaintainer::Create(
                                       std::move(program), options.semantics));
      impl = std::move(m);
      break;
    }
    case Strategy::kPF: {
      IVM_ASSIGN_OR_RETURN(auto m, PFMaintainer::Create(std::move(program)));
      impl = std::move(m);
      break;
    }
    case Strategy::kRecursiveCounting: {
      IVM_ASSIGN_OR_RETURN(auto m, RecursiveCountingMaintainer::Create(
                                       std::move(program)));
      impl = std::move(m);
      break;
    }
    case Strategy::kHigherOrder: {
      IVM_ASSIGN_OR_RETURN(auto m, HigherOrderMaintainer::Create(
                                       std::move(program), options.semantics));
      impl = std::move(m);
      break;
    }
    case Strategy::kAuto:
      return Status::Internal("kAuto should have been resolved");
  }
  impl->AttachMetrics(options.metrics);
  executor->AttachMetrics(options.metrics);
  impl->AttachExecutor(executor.get());
  auto manager = std::unique_ptr<ViewManager>(
      new ViewManager(std::move(impl), resolved, effective_semantics));
  manager->executor_ = std::move(executor);
  manager->metrics_ = options.metrics;
  manager->configured_durable_dir_ = options.durability_dir;
  manager->epochs_.AttachMetrics(options.metrics);
  // The reader context: the exact rule set and semantics snapshots carry.
  // Shared across every published version until a rule change replaces it.
  auto context = std::make_shared<SnapshotContext>();
  context->program = manager->impl_->program();
  context->semantics = effective_semantics;
  manager->context_ = std::move(context);
  return manager;
}

Result<std::unique_ptr<ViewManager>> ViewManager::CreateFromText(
    const std::string& program_text, const Options& options) {
  IVM_ASSIGN_OR_RETURN(Program program, ParseProgram(program_text));
  return Create(std::move(program), options);
}

Status ViewManager::Initialize(const Database& base) {
  {
    TraceSpan span(metrics_, "initialize");
    // Ambient pool for the initial evaluation's index builds.
    ExecContext exec_scope(executor_->pool(), executor_->min_partition_size());
    IVM_RETURN_IF_ERROR(impl_->Initialize(base));
  }
  // Publish epoch 0 before durability opens, so the seed Checkpoint (and any
  // concurrent reader) sees the initialized state.
  PublishSnapshot(/*net=*/nullptr);
  if (!configured_durable_dir_.empty() && wal_ == nullptr) {
    IVM_RETURN_IF_ERROR(OpenDurability(configured_durable_dir_));
  }
  return Status::OK();
}

Status ViewManager::EnableDurability(const std::string& dir) {
  if (wal_ != nullptr) {
    if (dir == durable_dir_) return Status::OK();  // idempotent re-enable
    return Status::FailedPrecondition(
        "durability is already enabled on '" + durable_dir_ +
        "'; cannot re-enable on '" + dir + "'");
  }
  if (!configured_durable_dir_.empty() && dir != configured_durable_dir_) {
    return Status::FailedPrecondition(
        "durability was configured on '" + configured_durable_dir_ +
        "' via ViewManager::Options; cannot enable it on '" + dir + "'");
  }
  return OpenDurability(dir);
}

Status ViewManager::OpenDurability(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create durability directory " + dir +
                            ": " + ec.message());
  }
  IVM_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Open(dir + "/wal.log"));
  wal_->AttachMetrics(metrics_);
  durable_dir_ = dir;
  const bool have_checkpoint =
      fs::exists(fs::path(dir) / "checkpoint" / "MANIFEST") ||
      fs::exists(fs::path(dir) / "checkpoint.old" / "MANIFEST");
  if (!have_checkpoint) {
    // Seed the directory so Recover always has a base snapshot even if we
    // crash before the first explicit Checkpoint().
    Status seeded = Checkpoint();
    if (!seeded.ok()) {
      wal_.reset();
      durable_dir_.clear();
      return seeded;
    }
  }
  return Status::OK();
}

Status ViewManager::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "durability is not enabled; call EnableDurability() first");
  }
  TraceSpan span(metrics_, "checkpoint");
  // Serialize from a pinned snapshot of the latest committed epoch, not the
  // maintainer's live slots: the checkpoint then captures exactly one
  // epoch's contents even though readers (and the span's own clock reads)
  // run concurrently, and the pinned extents stay alive and unchanged for
  // the whole write, so they are written as they are, not copied.
  Snapshot snap = snapshot();
  if (!snap.valid()) {
    return Status::FailedPrecondition(
        "nothing published yet; call Initialize() before Checkpoint()");
  }
  CheckpointSource data;
  data.epoch = epoch_;
  data.strategy = StrategyName(strategy_);
  data.semantics = semantics_ == Semantics::kDuplicate ? "duplicate" : "set";
  const Program& prog = snap.program();
  data.program_text = prog.ToString();
  for (PredicateId p : prog.BasePredicates()) {
    const PredicateInfo& info = prog.predicate(p);
    IVM_ASSIGN_OR_RETURN(const Relation* rel, snap.Get(info.name));
    data.base.emplace(info.name, rel);
  }
  for (PredicateId p : prog.DerivedPredicates()) {
    const PredicateInfo& info = prog.predicate(p);
    IVM_ASSIGN_OR_RETURN(const Relation* rel, snap.Get(info.name));
    data.views.emplace(info.name, rel);
  }
  IVM_RETURN_IF_ERROR(WriteCheckpoint(durable_dir_, data, metrics_));
  CounterAdd(metrics_, "checkpoint.count");
  // The snapshot absorbed every logged record; start the log over.
  return wal_->Reset();
}

Result<std::unique_ptr<ViewManager>> ViewManager::Recover(
    const std::string& dir, MetricsRegistry* metrics,
    const ExecutorOptions& executor) {
  TraceSpan span(metrics, "recover");
  IVM_ASSIGN_OR_RETURN(CheckpointData cp, ReadCheckpoint(dir));
  IVM_ASSIGN_OR_RETURN(Program program, ParseProgram(cp.program_text));
  IVM_ASSIGN_OR_RETURN(Strategy strategy, StrategyFromName(cp.strategy));
  Options options;
  options.strategy = strategy;
  options.semantics =
      cp.semantics == "duplicate" ? Semantics::kDuplicate : Semantics::kSet;
  options.metrics = metrics;
  // The executor is caller-supplied, not checkpointed: parallelism is a
  // machine-local knob, and parallel vs serial maintenance rebuilds
  // identical state (docs/parallelism.md).
  options.executor = executor;
  IVM_ASSIGN_OR_RETURN(std::unique_ptr<ViewManager> manager,
                       Create(std::move(program), options));

  Database base;
  for (const auto& [name, rel] : cp.base) {
    IVM_RETURN_IF_ERROR(base.CreateRelation(name, rel.arity()));
    base.mutable_relation(name) = rel;
  }
  IVM_RETURN_IF_ERROR(manager->Initialize(base));

  // Integrity check: the views recomputed from the checkpointed base must
  // match the checkpointed views exactly (Theorem 4.1 at rest). A mismatch
  // means the snapshot is corrupt or the program text drifted.
  {
    Snapshot snap = manager->snapshot();
    for (const auto& [name, stored] : cp.views) {
      IVM_ASSIGN_OR_RETURN(const Relation* live, snap.Get(name));
      if (*live != stored) {
        return Status::Internal("checkpoint view '" + name +
                                "' does not match its recomputation; snapshot "
                                "is corrupt");
      }
    }
  }

  // Replay the WAL tail: committed records past the checkpoint epoch, in
  // order. A torn/corrupt trailing record (mid-append crash) is skipped —
  // that operation never committed.
  manager->epoch_ = cp.epoch;
  bool torn_tail = false;
  IVM_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                       WriteAheadLog::ReadAll(dir + "/wal.log", &torn_tail));
  for (const WalRecord& rec : records) {
    if (rec.epoch <= cp.epoch) continue;
    switch (rec.kind) {
      case WalRecordKind::kChangeSet: {
        ChangeSet changes;
        for (const auto& [name, delta] : rec.deltas) {
          changes.Merge(name, delta);
        }
        IVM_RETURN_IF_ERROR(manager->Apply(changes).status());
        break;
      }
      case WalRecordKind::kAddRule:
        IVM_RETURN_IF_ERROR(manager->AddRuleText(rec.rule_text).status());
        break;
      case WalRecordKind::kRemoveRule:
        IVM_RETURN_IF_ERROR(manager->RemoveRule(rec.rule_index).status());
        break;
    }
    // Replay tracks the logged epochs exactly (robust even if the log ever
    // carries gaps).
    manager->epoch_ = rec.epoch;
    CounterAdd(metrics, "recovery.replayed_records");
  }
  if (torn_tail) CounterAdd(metrics, "recovery.torn_tails");

  // Replay published intermediate versions with replay-local epoch numbers;
  // republish once under the authoritative logged epoch so the first
  // post-recovery snapshot reports it correctly.
  manager->PublishSnapshot(/*net=*/nullptr);

  IVM_RETURN_IF_ERROR(manager->EnableDurability(dir));
  return manager;
}

Status ViewManager::CheckPostConditions(const ChangeSet& base_changes,
                                        const ChangeSet& view_changes,
                                        const TxnNetChanges* net) const {
  IVM_RETURN_IF_ERROR(view_changes.Validate());
  auto has_negative = [&](const Relation& rel) {
    const RelationNetChange* change = nullptr;
    if (net != nullptr) {
      auto it = net->find(&rel);
      if (it != net->end() && !it->second.bulk) change = &it->second;
    }
    if (change == nullptr) return rel.HasNegativeCounts();
    // Counts the transaction did not change passed this check before.
    return std::any_of(change->tuples.begin(), change->tuples.end(),
                       [&](const Tuple& t) { return rel.Count(t) < 0; });
  };
  auto check = [&](const std::string& name) -> Status {
    auto rel = impl_->GetRelation(name);
    if (!rel.ok()) return Status::OK();  // not stored by this maintainer
    if ((*rel)->overflowed()) {
      return Status::InvalidArgument("count arithmetic for relation '" + name +
                                     "' overflowed int64");
    }
    if (semantics_ == Semantics::kSet && has_negative(**rel)) {
      return Status::Internal("Lemma 4.1 violated: relation '" + name +
                              "' holds a negative count after maintenance");
    }
    return Status::OK();
  };
  for (const auto& [name, delta] : base_changes.deltas()) {
    (void)delta;
    IVM_RETURN_IF_ERROR(check(name));
  }
  for (const auto& [name, delta] : view_changes.deltas()) {
    (void)delta;
    IVM_RETURN_IF_ERROR(check(name));
  }
  return Status::OK();
}

Status ViewManager::FireTriggers(const ChangeSet& view_changes) {
  TraceSpan span(metrics_, "triggers");
  for (const auto& [id, sub] : subscriptions_) {
    (void)id;
    const Relation& delta = view_changes.Delta(sub.view);
    if (delta.empty()) continue;
    CounterAdd(metrics_, "triggers.dispatched");
    try {
      sub.trigger(sub.view, delta);
    } catch (const std::exception& e) {
      CounterAdd(metrics_, "triggers.threw");
      return Status::Internal("view trigger for '" + sub.view +
                              "' threw: " + e.what());
    } catch (...) {
      CounterAdd(metrics_, "triggers.threw");
      return Status::Internal("view trigger for '" + sub.view +
                              "' threw a non-standard exception");
    }
  }
  return Status::OK();
}

Status ViewManager::CommitDurable(
    const std::function<Status(uint64_t)>& append) {
  IVM_FAILPOINT("viewmanager.commit");
  const uint64_t next = epoch_ + 1;
  if (wal_ != nullptr) {
    IVM_RETURN_IF_ERROR(append(next));
  }
  epoch_ = next;
  return Status::OK();
}

Status ViewManager::FinishMutation(
    MaintainerTxn* txn, const ChangeSet& base_changes,
    const ChangeSet& view_changes, const TxnNetChanges* net,
    const std::function<Status(uint64_t)>& append) {
  Status status = CheckPostConditions(base_changes, view_changes, net);
  // The durable append happens BEFORE trigger dispatch, so subscribers only
  // ever observe deltas of mutations that are already on disk — a failed
  // WAL append can no longer emit a phantom notification for a mutation
  // that never committed. A trigger that throws still aborts the whole
  // mutation: the freshly appended record is truncated away along with the
  // in-memory rollback. (A crash between the append and that truncation
  // leaves the record in the log, so recovery replays the mutation — the
  // one window where a trigger's abort does not survive; docs/recovery.md.)
  const uint64_t epoch_before = epoch_;
  const int64_t wal_size_before = wal_ != nullptr ? wal_->committed_size() : 0;
  if (status.ok()) status = CommitDurable(append);
  if (status.ok()) {
    status = FireTriggers(view_changes);
    if (!status.ok()) {
      epoch_ = epoch_before;
      if (wal_ != nullptr) {
        Status undo = wal_->TruncateTo(wal_size_before);
        if (!undo.ok()) {
          status = Status::Internal(
              status.message() +
              "; and the WAL record could not be rolled back: " +
              std::string(undo.message()));
        }
      }
    }
  }
  if (!status.ok()) {
    txn->Rollback();
    CounterAdd(metrics_, "mutations.rolled_back");
    return status;
  }
  txn->Commit();
  CounterAdd(metrics_, "mutations.committed");
  return Status::OK();
}

Result<ChangeSet> ViewManager::Apply(const ChangeSet& base_changes) {
  return ApplyImpl(base_changes, nullptr);
}

Result<ChangeSet> ViewManager::Apply(ChangeSet&& base_changes) {
  // The WAL record is serialized from `base_changes` at commit time — after
  // maintenance would have emptied it — so the move path requires
  // durability to be off.
  if (wal_ != nullptr) return ApplyImpl(base_changes, nullptr);
  return ApplyImpl(base_changes, &base_changes);
}

Result<ChangeSet> ViewManager::ApplyImpl(const ChangeSet& base_changes,
                                         ChangeSet* take_from) {
  TraceSpan span(metrics_, "apply");
  IVM_RETURN_IF_ERROR(base_changes.Validate());
  // Captured before the maintainer may cannibalize the deltas (move path).
  const size_t base_delta_tuples = base_changes.TotalTuples();
  // Ambient pool: index (re)builds triggered anywhere under this Apply may
  // fan out across the executor's workers.
  ExecContext exec_scope(executor_->pool(), executor_->min_partition_size());
  std::unique_ptr<MaintainerTxn> txn = impl_->BeginTxn();
  Result<ChangeSet> result = take_from != nullptr
                                 ? impl_->Apply(std::move(*take_from))
                                 : impl_->Apply(base_changes);
  if (!result.ok()) {
    txn->Rollback();
    CounterAdd(metrics_, "mutations.rolled_back");
    return result.status();
  }
  // Taken before the commit discards the log; publication writes it.
  const std::optional<TxnNetChanges> net = txn->NetChanges();
  const TxnNetChanges* net_ptr = net.has_value() ? &*net : nullptr;
  IVM_RETURN_IF_ERROR(FinishMutation(
      txn.get(), base_changes, result.value(), net_ptr, [&](uint64_t epoch) {
        return wal_->AppendChangeSet(epoch, base_changes.deltas());
      }));
  PublishSnapshot(net_ptr);
  if (metrics_ != nullptr) {
    metrics_->counter("apply.base_delta_tuples")->Add(base_delta_tuples);
    metrics_->counter("apply.view_delta_tuples")
        ->Add(result.value().TotalTuples());
    metrics_->gauge("apply.peak_view_delta_tuples")
        ->SetMax(static_cast<int64_t>(result.value().TotalTuples()));
  }
  return result;
}

ViewManager::Subscription ViewManager::Watch(const std::string& view,
                                             ViewTrigger trigger) {
  int id = next_subscription_id_++;
  subscriptions_[id] = TriggerEntry{view, std::move(trigger)};
  return Subscription(this, id);
}

void ViewManager::UnsubscribeId(int subscription_id) {
  subscriptions_.erase(subscription_id);
}

Snapshot ViewManager::snapshot() const {
  return Snapshot(&epochs_, epochs_.Pin(), metrics_);
}

void ViewManager::PublishSnapshot(const TxnNetChanges* net) {
  auto version = std::make_shared<StorageVersion>();
  version->epoch = epoch_;
  version->payload = context_;
  const std::shared_ptr<const StorageVersion> prev = epochs_.Current();
  const Program& prog = impl_->program();
  // Extents brought up to date in place, unless a reader pins them.
  std::vector<ExtentWrite> writes;
  std::vector<PublishedExtent*> written;
  uint64_t shared = 0;
  uint64_t copied_tuples = 0;
  uint64_t replayed_tuples = 0;
  auto publish_one = [&](PredicateId p) {
    const std::string& name = prog.predicate(p).name;
    Result<const Relation*> stored = impl_->GetRelation(name);
    if (!stored.ok()) return;  // not materialized by this maintainer
    const Relation* source = stored.value();
    PublishedExtent& out = version->extents[name];
    out.source_uid = source->uid();
    out.source_version = source->version();
    // The previous extent of the same slot. Relation::uid() is never
    // reused, and assignment bumps the target's version, so a matching
    // (uid, version) proves the slot untouched since it was published.
    const PublishedExtent* last = nullptr;
    if (prev != nullptr) {
      auto it = prev->extents.find(name);
      if (it != prev->extents.end() && it->second.source_uid == source->uid()) {
        last = &it->second;
      }
    }
    if (last != nullptr && last->source_version == source->version()) {
      out.extent = last->extent;
      ++shared;
      return;
    }
    if (last != nullptr && net != nullptr) {
      // The log holds every edit since that publication only if the slot
      // was still at the published version when the transaction began.
      auto change = net->find(source);
      if (change != net->end() && !change->second.bulk &&
          change->second.begin_version == last->source_version) {
        out.extent = last->extent;
        writes.push_back(
            ExtentWrite{last->extent.get(), source, &change->second.tuples});
        written.push_back(&out);
        replayed_tuples += change->second.tuples.size();
        return;
      }
    }
    out.extent = std::make_shared<const Relation>(*source);
    copied_tuples += source->size();
  };
  for (PredicateId p : prog.BasePredicates()) publish_one(p);
  for (PredicateId p : prog.DerivedPredicates()) publish_one(p);
  const bool in_place =
      !writes.empty() && epochs_.PublishInPlace(version, writes);
  if (!in_place) {
    // Nothing to write in place, or a snapshot is pinned and its extents
    // must not change: copy the relations that were to be written.
    for (size_t i = 0; i < writes.size(); ++i) {
      written[i]->extent = std::make_shared<const Relation>(*writes[i].source);
      copied_tuples += writes[i].source->size();
    }
    epochs_.Publish(std::move(version));
  }
  if (metrics_ != nullptr) {
    if (shared > 0) metrics_->counter("storage.extents_shared")->Add(shared);
    if (in_place) {
      metrics_->counter("storage.extents_replayed")->Add(writes.size());
      metrics_->counter("storage.tuples_replayed")->Add(replayed_tuples);
    }
    if (copied_tuples > 0) {
      metrics_->counter("storage.tuples_copied")->Add(copied_tuples);
    }
  }
}

Result<ChangeSet> ViewManager::AddRule(const Rule& rule) {
  TraceSpan span(metrics_, "add_rule");
  auto* dred = dynamic_cast<DRedMaintainer*>(impl_.get());
  if (dred == nullptr) {
    return Status::FailedPrecondition(
        "view redefinition is supported by the DRed strategy only "
        "(Section 7); create the manager with Strategy::kDRed");
  }
  // Rule changes restructure the program and the materializations, so they
  // run under a whole-state snapshot instead of the undo log.
  ExecContext exec_scope(executor_->pool(), executor_->min_partition_size());
  std::unique_ptr<MaintainerTxn> txn = dred->BeginRuleChangeTxn();
  Result<ChangeSet> result = dred->AddRule(rule);
  if (!result.ok()) {
    txn->Rollback();
    CounterAdd(metrics_, "mutations.rolled_back");
    return result.status();
  }
  const ChangeSet no_base_changes;
  IVM_RETURN_IF_ERROR(FinishMutation(
      txn.get(), no_base_changes, result.value(), /*net=*/nullptr,
      [&](uint64_t epoch) {
        return wal_->AppendAddRule(epoch, rule.ToString());
      }));
  RepublishAfterRuleChange();
  return result;
}

Result<ChangeSet> ViewManager::AddRuleText(const std::string& rule_text) {
  IVM_ASSIGN_OR_RETURN(Rule rule, ParseRule(rule_text));
  return AddRule(rule);
}

Result<ChangeSet> ViewManager::RemoveRule(int rule_index) {
  TraceSpan span(metrics_, "remove_rule");
  auto* dred = dynamic_cast<DRedMaintainer*>(impl_.get());
  if (dred == nullptr) {
    return Status::FailedPrecondition(
        "view redefinition is supported by the DRed strategy only "
        "(Section 7); create the manager with Strategy::kDRed");
  }
  ExecContext exec_scope(executor_->pool(), executor_->min_partition_size());
  std::unique_ptr<MaintainerTxn> txn = dred->BeginRuleChangeTxn();
  Result<ChangeSet> result = dred->RemoveRule(rule_index);
  if (!result.ok()) {
    txn->Rollback();
    CounterAdd(metrics_, "mutations.rolled_back");
    return result.status();
  }
  const ChangeSet no_base_changes;
  IVM_RETURN_IF_ERROR(FinishMutation(
      txn.get(), no_base_changes, result.value(), /*net=*/nullptr,
      [&](uint64_t epoch) {
        return wal_->AppendRemoveRule(epoch, rule_index);
      }));
  RepublishAfterRuleChange();
  return result;
}

void ViewManager::RepublishAfterRuleChange() {
  // The rule set itself changed: capture a fresh context for readers so
  // later-pinned snapshots parse/plan against the new program. Relations a
  // rule change did not touch keep their (uid, version) fingerprint and are
  // shared, while slots the change rebuilt — including any destroyed and
  // re-created at a reused address — carry a fresh uid and are copied.
  auto context = std::make_shared<SnapshotContext>();
  context->program = impl_->program();
  context->semantics = semantics_;
  context_ = std::move(context);
  PublishSnapshot(/*net=*/nullptr);
}

}  // namespace ivm
