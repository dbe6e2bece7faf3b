// Robustness: malformed inputs must produce error Statuses, never crashes,
// and maintainers must stay usable after rejected operations.

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/view_manager.h"
#include "datalog/parser.h"
#include "sql/sql_translator.h"
#include "test_util.h"
#include "txn/failpoint.h"
#include "txn/undo_log.h"

namespace ivm {
namespace {

TEST(RobustnessTest, MalformedDatalogInputsErrorCleanly) {
  const char* kBadPrograms[] = {
      "hop(X",                               // truncated
      "hop(X, Y) :-",                        // missing body
      "hop(X, Y) :- link(X, Y)",             // missing dot
      ":- link(X, Y).",                      // missing head
      "base .",                              // missing name
      "base link(S, D). hop(X, Y) :- link(X).",        // arity mismatch
      "base link(S, D). hop(X, Q) :- link(X, Y).",     // unsafe head
      "base l(X). p(X) :- l(X) & !p(X).",              // unstratified
      "p(X) :- q(X).",                       // undeclared q
      "base l(X). 42(X) :- l(X).",           // numeric predicate
      "base l(X). p(X) :- l(X), X <.",       // dangling comparison
      "base l(X). p(X) :- groupby(l(X), [Y], M = min(X)).",  // group var not in atom
  };
  for (const char* text : kBadPrograms) {
    auto r = ParseProgram(text);
    EXPECT_FALSE(r.ok()) << text;
  }
  // The empty program is valid (no rules, no views).
  EXPECT_TRUE(ParseProgram("").ok());
}

TEST(RobustnessTest, MalformedSqlErrorsCleanly) {
  const char* kBadSql[] = {
      "SELECT",  // not a statement we accept at top level
      "CREATE",
      "CREATE VIEW v AS SELECT FROM t;",
      "CREATE TABLE t(;",
      "CREATE VIEW v AS SELECT x FROM;",
      "INSERT INTO;",
      "INSERT INTO t VALUES;",
      "DELETE t;",
      "UPDATE t WHERE x = 1;",
      "CREATE VIEW v AS SELECT x FROM a UNION;",
  };
  for (const char* text : kBadSql) {
    SqlTranslator tr;
    Status s = tr.AddScript(text);
    EXPECT_FALSE(s.ok()) << text;
  }
}

TEST(RobustnessTest, ManagerSurvivesRejectedApply) {
  auto vm = ViewManager::CreateFromText(
      "base link(S, D). hop(X, Y) :- link(X, Z) & link(Z, Y).").value();
  Database db;
  testing_util::MustLoadFacts(&db, "link(a,b). link(b,c).");
  IVM_ASSERT_OK(vm->Initialize(db));

  // Rejected: deleting a missing tuple.
  ChangeSet bad;
  bad.Delete("link", Tup("z", "z"));
  EXPECT_FALSE(vm->Apply(bad).ok());

  // Rejected: touching an unknown relation.
  ChangeSet unknown;
  unknown.Insert("nope", Tup(1));
  EXPECT_FALSE(vm->Apply(unknown).ok());

  // Rejected: touching a view directly.
  ChangeSet view_write;
  view_write.Insert("hop", Tup("x", "y"));
  EXPECT_FALSE(vm->Apply(view_write).ok());

  // The manager still works and its state is unchanged.
  EXPECT_EQ(vm->snapshot().Get("hop").value()->ToString(), "{(\"a\", \"c\")}");
  ChangeSet good;
  good.Insert("link", Tup("c", "d"));
  ChangeSet out = vm->Apply(good).value();
  EXPECT_EQ(out.Delta("hop").Count(Tup("b", "d")), 1);
}

TEST(RobustnessTest, EmptyApplyIsANoop) {
  auto vm = ViewManager::CreateFromText(
      "base link(S, D). hop(X, Y) :- link(X, Z) & link(Z, Y).").value();
  Database db;
  testing_util::MustLoadFacts(&db, "link(a,b). link(b,c).");
  IVM_ASSERT_OK(vm->Initialize(db));
  ChangeSet empty;
  ChangeSet out = vm->Apply(empty).value();
  EXPECT_TRUE(out.empty());
}

TEST(RobustnessTest, ViewsOverEmptyBaseRelations) {
  for (Strategy s : {Strategy::kCounting, Strategy::kDRed, Strategy::kRecompute}) {
    auto vm = ViewManager::CreateFromText(
        "base a(X). base b(X).\n"
        "u(X) :- a(X).\n"
        "u(X) :- b(X).\n"
        "only_a(X) :- a(X) & !b(X).\n"
        "n(C) :- groupby(a(X), [], C = count(*)).",
        testing_util::ManagerOptions(s)).value();
    Database db;
    db.CreateRelation("a", 1).CheckOK();
    db.CreateRelation("b", 1).CheckOK();
    IVM_ASSERT_OK(vm->Initialize(db));
    EXPECT_TRUE(vm->snapshot().Get("u").value()->empty());
    EXPECT_TRUE(vm->snapshot().Get("n").value()->empty());
    // First-ever tuple.
    ChangeSet first;
    first.Insert("a", Tup(1));
    ChangeSet out = vm->Apply(first).value();
    EXPECT_EQ(out.Delta("u").Count(Tup(1)), 1) << StrategyName(s);
    EXPECT_EQ(out.Delta("only_a").Count(Tup(1)), 1) << StrategyName(s);
    EXPECT_EQ(out.Delta("n").Count(Tup(1)), 1) << StrategyName(s);
    // And back to empty.
    ChangeSet undo;
    undo.Delete("a", Tup(1));
    ChangeSet out2 = vm->Apply(undo).value();
    EXPECT_EQ(out2.Delta("n").Count(Tup(1)), -1) << StrategyName(s);
    EXPECT_TRUE(vm->snapshot().Get("u").value()->empty());
  }
}

TEST(RobustnessTest, LongChainDeepRecursionNoStackIssues) {
  auto vm = ViewManager::CreateFromText(
      "base e(X, Y). p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z) & e(Z, Y).",
      testing_util::ManagerOptions(Strategy::kDRed)).value();
  Database db;
  db.CreateRelation("e", 2).CheckOK();
  const int n = 600;
  for (int i = 0; i < n; ++i) db.mutable_relation("e").Add(Tup(i, i + 1), 1);
  IVM_ASSERT_OK(vm->Initialize(db));
  EXPECT_EQ(vm->snapshot().Get("p").value()->size(),
            static_cast<size_t>(n) * (n + 1) / 2);
  ChangeSet cut;
  cut.Delete("e", Tup(n / 2, n / 2 + 1));
  ChangeSet out = vm->Apply(cut).value();
  EXPECT_EQ(out.Delta("p").size(),
            static_cast<size_t>(n / 2 + 1) * (n - n / 2));
}

// Full textual state of the named relations — byte-identical fingerprints
// mean the rollback restored every tuple and count exactly.
std::string Fingerprint(ViewManager& vm,
                        std::initializer_list<const char*> names) {
  std::string fp;
  for (const char* name : names) {
    fp += std::string(name) + "=" + vm.snapshot().Get(name).value()->ToString() +
          "\n";
  }
  return fp;
}

// The undo log's net changes: one entry per tuple whose count differs from
// its count at begin, however many edits it took; a tuple edited back to
// its old count is not a change (DRed's over-delete then rederive).
TEST(UndoLogTest, NetChangesKeepOnlyTuplesThatEndedDifferent) {
  Relation r("r", 1);
  Relation untouched("u", 1);
  r.Add(Tup(1), 1);
  r.Add(Tup(2), 1);
  const uint64_t begin_version = r.version();
  UndoLog log({&r, &untouched});
  r.Erase(Tup(1));
  r.Add(Tup(1), 1);   // rederived: back to its old count
  r.Add(Tup(2), 2);   // count 1 -> 3
  r.Add(Tup(3), 1);   // inserted
  r.Add(Tup(3), -1);  // and deleted again
  r.Add(Tup(4), 1);   // inserted
  std::optional<TxnNetChanges> net = log.NetChanges();
  ASSERT_TRUE(net.has_value());
  ASSERT_EQ(net->size(), 2u);
  const RelationNetChange& change = net->at(&r);
  EXPECT_FALSE(change.bulk);
  EXPECT_EQ(change.begin_version, begin_version);
  std::vector<Tuple> tuples = change.tuples;
  std::sort(tuples.begin(), tuples.end());
  EXPECT_EQ(tuples, (std::vector<Tuple>{Tup(2), Tup(4)}));
  EXPECT_TRUE(net->at(&untouched).tuples.empty());
  log.Rollback();
  EXPECT_EQ(r.ToString(), "{(1), (2)}");
}

TEST(UndoLogTest, BulkReplacementIsFlaggedNotListed) {
  Relation r("r", 1);
  r.Add(Tup(1), 1);
  UndoLog log({&r});
  r.Add(Tup(2), 1);
  r.Clear();
  r.Add(Tup(3), 1);
  std::optional<TxnNetChanges> net = log.NetChanges();
  ASSERT_TRUE(net.has_value());
  EXPECT_TRUE(net->at(&r).bulk);
  EXPECT_TRUE(net->at(&r).tuples.empty());
  log.Commit();
}

TEST(RobustnessTest, ThrowingTriggerRollsBackApply) {
  auto vm = ViewManager::CreateFromText(
      "base link(S, D). hop(X, Y) :- link(X, Z) & link(Z, Y).").value();
  Database db;
  testing_util::MustLoadFacts(&db, "link(a,b). link(b,c).");
  IVM_ASSERT_OK(vm->Initialize(db));
  const std::string before = Fingerprint(*vm, {"link", "hop"});

  int fired = 0;
  ViewManager::Subscription sub =
      vm->Watch("hop", [&](const std::string&, const Relation&) {
        ++fired;
        throw std::runtime_error("active rule exploded");
      });

  ChangeSet changes;
  changes.Insert("link", Tup("c", "d"));
  auto result = vm->Apply(changes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("active rule exploded"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(fired, 1);
  // The trigger observed the delta, but nothing of the Apply survived it —
  // neither the base fold nor the view maintenance.
  EXPECT_EQ(Fingerprint(*vm, {"link", "hop"}), before);
  EXPECT_EQ(vm->epoch(), 0u);

  // A trigger throwing something that is not a std::exception is also
  // contained.
  sub.Unsubscribe();
  sub = vm->Watch("hop", [](const std::string&, const Relation&) {
    throw 42;
  });
  EXPECT_FALSE(vm->Apply(changes).ok());
  EXPECT_EQ(Fingerprint(*vm, {"link", "hop"}), before);

  // After unsubscribing, the identical change set commits.
  sub.Unsubscribe();
  ChangeSet out = vm->Apply(changes).value();
  EXPECT_EQ(out.Delta("hop").Count(Tup("b", "d")), 1);
  EXPECT_EQ(vm->epoch(), 1u);
}

TEST(RobustnessTest, ThrowingTriggerRollsBackRuleChanges) {
  auto vm = ViewManager::CreateFromText(
                "base link(S, D). hop(X, Y) :- link(X, Z) & link(Z, Y).",
                testing_util::ManagerOptions(Strategy::kDRed))
                .value();
  Database db;
  // A 3-cycle, so the tri rule added below derives tuples and its trigger
  // actually fires.
  testing_util::MustLoadFacts(&db, "link(a,b). link(b,c). link(c,a).");
  IVM_ASSERT_OK(vm->Initialize(db));
  const size_t num_rules = vm->program().rules().size();
  const std::string before = Fingerprint(*vm, {"link", "hop"});

  ViewManager::Subscription sub =
      vm->Watch("tri", [](const std::string&, const Relation&) {
        throw std::runtime_error("no thanks");
      });
  auto added = vm->AddRuleText(
      "tri(X) :- link(X, Y) & link(Y, Z) & link(Z, X).");
  EXPECT_FALSE(added.ok());
  // The program and the views are exactly as before the failed AddRule.
  EXPECT_EQ(vm->program().rules().size(), num_rules);
  EXPECT_EQ(Fingerprint(*vm, {"link", "hop"}), before);
  EXPECT_FALSE(vm->snapshot().Get("tri").ok());

  sub.Unsubscribe();
  ASSERT_TRUE(vm->AddRuleText(
      "tri(X) :- link(X, Y) & link(Y, Z) & link(Z, X).").ok());
  EXPECT_EQ(vm->program().rules().size(), num_rules + 1);
}

// Mid-maintenance failure for every strategy: kill the maintainer at a
// failpoint on its own path and verify the manager rolls back to its exact
// pre-call state and stays usable. Needs -DIVM_FAILPOINTS=ON (see
// tools/run_fault_matrix.sh); skipped otherwise.
struct StrategyFailpoint {
  Strategy strategy;
  const char* failpoint;
};

class MidMaintenanceFailureTest
    : public ::testing::TestWithParam<StrategyFailpoint> {};

TEST_P(MidMaintenanceFailureTest, FailedApplyLeavesStateIdentical) {
  if (!FailpointRegistry::CompiledIn()) {
    GTEST_SKIP() << "library built without -DIVM_FAILPOINTS=ON";
  }
  auto& reg = FailpointRegistry::Instance();
  reg.DisarmAll();

  auto vm = ViewManager::CreateFromText(
      "base link(S, D). "
      "hop(X, Y) :- link(X, Z) & link(Z, Y). "
      "tri(X) :- link(X, Y) & link(Y, Z) & link(Z, X).",
      testing_util::ManagerOptions(
          GetParam().strategy,
          GetParam().strategy == Strategy::kRecursiveCounting
              ? Semantics::kDuplicate
              : Semantics::kSet)).value();
  Database db;
  testing_util::MustLoadFacts(
      &db, "link(a,b). link(b,c). link(c,a). link(c,d).");
  IVM_ASSERT_OK(vm->Initialize(db));
  const std::string before = Fingerprint(*vm, {"link", "hop", "tri"});

  ChangeSet changes;
  changes.Delete("link", Tup("b", "c"));
  changes.Insert("link", Tup("a", "c"));

  reg.ArmOnNthHit(GetParam().failpoint, 1);
  auto result = vm->Apply(changes);
  reg.DisarmAll();
  ASSERT_FALSE(result.ok())
      << GetParam().failpoint << " never fired for "
      << StrategyName(GetParam().strategy);
  EXPECT_EQ(Fingerprint(*vm, {"link", "hop", "tri"}), before);
  EXPECT_EQ(vm->epoch(), 0u);

  // Not wedged: the very same change set commits once the fault is gone.
  ASSERT_TRUE(vm->Apply(changes).ok());
  EXPECT_EQ(vm->epoch(), 1u);
  EXPECT_NE(Fingerprint(*vm, {"link", "hop", "tri"}), before);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MidMaintenanceFailureTest,
    ::testing::Values(
        StrategyFailpoint{Strategy::kCounting, "counting.stratum.begin"},
        StrategyFailpoint{Strategy::kCounting, "counting.fold.views"},
        StrategyFailpoint{Strategy::kDRed, "dred.commit.base"},
        StrategyFailpoint{Strategy::kDRed, "dred.commit.stratum"},
        StrategyFailpoint{Strategy::kPF, "pf.fragment"},
        StrategyFailpoint{Strategy::kRecursiveCounting, "rc.worklist.step"},
        StrategyFailpoint{Strategy::kRecompute, "recompute.reevaluate"},
        StrategyFailpoint{Strategy::kCounting, "viewmanager.commit"},
        StrategyFailpoint{Strategy::kDRed, "viewmanager.commit"}),
    [](const ::testing::TestParamInfo<StrategyFailpoint>& info) {
      std::string name = std::string(StrategyName(info.param.strategy)) + "_" +
                         info.param.failpoint;
      for (char& c : name) {
        if (c == '.' || c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ivm
