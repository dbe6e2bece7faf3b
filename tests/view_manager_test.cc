#include "core/view_manager.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ivm {
namespace {

using testing_util::MustParseProgram;

TEST(ViewManagerTest, AutoPicksCountingForNonrecursive) {
  auto vm = ViewManager::CreateFromText(
      "base link(S, D). hop(X, Y) :- link(X, Z) & link(Z, Y).");
  ASSERT_TRUE(vm.ok()) << vm.status().ToString();
  EXPECT_EQ((*vm)->strategy(), Strategy::kCounting);
}

TEST(ViewManagerTest, AutoPicksDRedForRecursive) {
  auto vm = ViewManager::CreateFromText(
      "base e(X, Y). p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z) & e(Z, Y).");
  ASSERT_TRUE(vm.ok());
  EXPECT_EQ((*vm)->strategy(), Strategy::kDRed);
}

TEST(ViewManagerTest, EndToEndQuickstartFlow) {
  auto vm = ViewManager::CreateFromText(
      "base link(S, D). hop(X, Y) :- link(X, Z) & link(Z, Y).").value();
  Database db;
  testing_util::MustLoadFacts(
      &db, "link(a,b). link(b,c). link(b,e). link(a,d). link(d,c).");
  IVM_ASSERT_OK(vm->Initialize(db));
  ChangeSet changes;
  changes.Delete("link", Tup("a", "b"));
  ChangeSet out = vm->Apply(changes).value();
  EXPECT_EQ(out.Delta("hop").Count(Tup("a", "e")), -1);
  EXPECT_EQ(out.Delta("hop").size(), 1u);
}

TEST(ViewManagerTest, DuplicateSemanticsWithRecursionRejected) {
  auto vm = ViewManager::CreateFromText(
      "base e(X, Y). p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z) & e(Z, Y).",
      testing_util::ManagerOptions(Strategy::kAuto, Semantics::kDuplicate));
  EXPECT_FALSE(vm.ok());
}

TEST(ViewManagerTest, ExplicitStrategies) {
  const std::string text =
      "base link(S, D). hop(X, Y) :- link(X, Z) & link(Z, Y).";
  for (Strategy s : {Strategy::kCounting, Strategy::kDRed, Strategy::kRecompute,
                     Strategy::kPF}) {
    auto vm = ViewManager::CreateFromText(text, testing_util::ManagerOptions(s));
    ASSERT_TRUE(vm.ok()) << StrategyName(s);
    Database db;
    testing_util::MustLoadFacts(&db, "link(a,b). link(b,c).");
    IVM_ASSERT_OK((*vm)->Initialize(db));
    ChangeSet changes;
    changes.Insert("link", Tup("c", "d"));
    ChangeSet out = (*vm)->Apply(changes).value();
    EXPECT_EQ(out.Delta("hop").Count(Tup("b", "d")), 1) << StrategyName(s);
  }
}

TEST(ViewManagerTest, RuleChangesOnlyViaDRed) {
  auto counting = ViewManager::CreateFromText(
                      "base e(X, Y). v(X, Y) :- e(X, Y).",
                      testing_util::ManagerOptions(Strategy::kCounting))
                      .value();
  Database db;
  testing_util::MustLoadFacts(&db, "e(1,2).");
  IVM_ASSERT_OK(counting->Initialize(db));
  EXPECT_EQ(counting->AddRuleText("v(X, Y) :- e(Y, X).").status().code(),
            StatusCode::kFailedPrecondition);

  auto dred = ViewManager::CreateFromText(
                  "base e(X, Y). v(X, Y) :- e(X, Y).",
                  testing_util::ManagerOptions(Strategy::kDRed))
                  .value();
  IVM_ASSERT_OK(dred->Initialize(db));
  ChangeSet out = dred->AddRuleText("v(X, Y) :- e(Y, X).").value();
  EXPECT_EQ(out.Delta("v").Count(Tup(2, 1)), 1);
}

TEST(ViewManagerTest, ParseErrorsSurface) {
  EXPECT_FALSE(ViewManager::CreateFromText("this is not datalog").ok());
}

TEST(ViewManagerTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kCounting), "counting");
  EXPECT_STREQ(StrategyName(Strategy::kDRed), "dred");
  EXPECT_STREQ(StrategyName(Strategy::kRecompute), "recompute");
  EXPECT_STREQ(StrategyName(Strategy::kPF), "pf");
}

// ---------------------------------------------------------------------------
// The Options-based construction API.
// ---------------------------------------------------------------------------

constexpr const char* kHopText =
    "base link(S, D). hop(X, Y) :- link(X, Z) & link(Z, Y).";

TEST(ViewManagerOptionsTest, OptionsSelectStrategyAndSemantics) {
  ViewManager::Options options;
  options.strategy = Strategy::kDRed;
  auto vm = ViewManager::CreateFromText(kHopText, options).value();
  EXPECT_EQ(vm->strategy(), Strategy::kDRed);

  options.strategy = Strategy::kAuto;
  options.semantics = Semantics::kDuplicate;
  auto vm2 = ViewManager::CreateFromText(kHopText, options).value();
  EXPECT_EQ(vm2->strategy(), Strategy::kCounting);
  EXPECT_EQ(vm2->semantics(), Semantics::kDuplicate);
}

TEST(ViewManagerOptionsTest, ExecutorOptionsAreValidated) {
  // Bad knobs are rejected up front, with the field spelled out.
  ViewManager::Options options;
  options.strategy = Strategy::kCounting;
  options.executor.threads = -2;
  auto bad_threads = ViewManager::CreateFromText(kHopText, options);
  EXPECT_EQ(bad_threads.status().code(), StatusCode::kInvalidArgument);

  options.executor.threads = 2;
  options.executor.min_partition_size = 0;
  auto bad_partition = ViewManager::CreateFromText(kHopText, options);
  EXPECT_EQ(bad_partition.status().code(), StatusCode::kInvalidArgument);

  // PF cannot fan out; an explicit parallel request there is a
  // contradiction, not a silent no-op.
  ViewManager::Options pf;
  pf.strategy = Strategy::kPF;
  pf.executor.threads = 4;
  auto pf_parallel = ViewManager::CreateFromText(kHopText, pf);
  EXPECT_EQ(pf_parallel.status().code(), StatusCode::kInvalidArgument);

  // Serial PF and parallel counting are both fine.
  pf.executor.threads = 1;
  IVM_EXPECT_OK(ViewManager::CreateFromText(kHopText, pf).status());
  ViewManager::Options parallel;
  parallel.strategy = Strategy::kCounting;
  parallel.executor.threads = 4;
  IVM_EXPECT_OK(ViewManager::CreateFromText(kHopText, parallel).status());
}

TEST(ViewManagerOptionsTest, ParallelExecutorMatchesSerialResults) {
  ViewManager::Options serial;
  serial.strategy = Strategy::kCounting;
  ViewManager::Options parallel = serial;
  parallel.executor.threads = 4;
  parallel.executor.min_partition_size = 1;
  auto a = ViewManager::CreateFromText(kHopText, serial).value();
  auto b = ViewManager::CreateFromText(kHopText, parallel).value();
  Database db;
  testing_util::MustLoadFacts(&db, "link(a,b). link(b,c).");
  IVM_ASSERT_OK(a->Initialize(db));
  IVM_ASSERT_OK(b->Initialize(db));
  ChangeSet changes;
  changes.Insert("link", Tup("c", "d"));
  EXPECT_EQ(a->Apply(changes).value().Delta("hop").ToString(),
            b->Apply(changes).value().Delta("hop").ToString());
  EXPECT_EQ(a->snapshot().Get("hop").value()->ToString(),
            b->snapshot().Get("hop").value()->ToString());
}

TEST(ViewManagerOptionsTest, MoveApplyMatchesCopyApply) {
  ViewManager::Options options;
  options.strategy = Strategy::kCounting;
  auto a = ViewManager::CreateFromText(kHopText, options).value();
  auto b = ViewManager::CreateFromText(kHopText, options).value();
  Database db;
  testing_util::MustLoadFacts(&db, "link(a,b). link(b,c).");
  IVM_ASSERT_OK(a->Initialize(db));
  IVM_ASSERT_OK(b->Initialize(db));

  ChangeSet copied;
  copied.Insert("link", Tup("c", "d"));
  copied.Delete("link", Tup("a", "b"));
  ChangeSet moved = copied;
  const std::string via_copy = a->Apply(copied).value().Delta("hop").ToString();
  const std::string via_move =
      b->Apply(std::move(moved)).value().Delta("hop").ToString();
  EXPECT_EQ(via_copy, via_move);
  EXPECT_EQ(a->snapshot().Get("hop").value()->ToString(),
            b->snapshot().Get("hop").value()->ToString());
  // The copy overload leaves its (const) argument intact for reuse.
  EXPECT_FALSE(copied.empty());
  EXPECT_EQ(copied.Delta("link").TotalCount(), 0);  // +1 insert, -1 delete
}

TEST(ViewManagerOptionsTest, MetricsAttachThroughOptions) {
  MetricsRegistry metrics;
  ViewManager::Options options;
  options.strategy = Strategy::kCounting;
  options.metrics = &metrics;
  auto vm = ViewManager::CreateFromText(kHopText, options).value();
  Database db;
  testing_util::MustLoadFacts(&db, "link(a,b). link(b,c).");
  IVM_ASSERT_OK(vm->Initialize(db));
  ChangeSet changes;
  changes.Insert("link", Tup("c", "d"));
  vm->Apply(changes).value();
  EXPECT_GT(metrics.counter_value("mutations.committed"), 0u);
  EXPECT_NE(metrics.FindHistogram("span.apply"), nullptr);
}

TEST(ViewManagerOptionsTest, DurabilityDirOpensOnInitialize) {
  std::string dir =
      ::testing::TempDir() + "vm_options_durability_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  ViewManager::Options options;
  options.strategy = Strategy::kCounting;
  options.durability_dir = dir;
  auto vm = ViewManager::CreateFromText(kHopText, options).value();
  Database db;
  testing_util::MustLoadFacts(&db, "link(a,b). link(b,c).");
  IVM_ASSERT_OK(vm->Initialize(db));
  ChangeSet changes;
  changes.Insert("link", Tup("c", "d"));
  vm->Apply(changes).value();

  // The WAL written under Options.durability_dir must drive Recover.
  auto recovered = ViewManager::Recover(dir).value();
  EXPECT_EQ(recovered->snapshot().Get("hop").value()->ToString(),
            vm->snapshot().Get("hop").value()->ToString());
}

TEST(ViewManagerOptionsTest, EnableDurabilityConflictIsAnError) {
  std::string base =
      ::testing::TempDir() + "vm_durability_conflict_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  ViewManager::Options options;
  options.strategy = Strategy::kCounting;
  options.durability_dir = base + "_a";
  auto vm = ViewManager::CreateFromText(kHopText, options).value();
  Database db;
  testing_util::MustLoadFacts(&db, "link(a,b).");
  IVM_ASSERT_OK(vm->Initialize(db));

  // Same dir: idempotent, OK. Different dir: FailedPrecondition, and the
  // original WAL stays active (no silent last-writer-wins).
  IVM_ASSERT_OK(vm->EnableDurability(base + "_a"));
  EXPECT_EQ(vm->EnableDurability(base + "_b").code(),
            StatusCode::kFailedPrecondition);
  ChangeSet changes;
  changes.Insert("link", Tup("b", "c"));
  vm->Apply(changes).value();
  auto recovered = ViewManager::Recover(base + "_a").value();
  EXPECT_TRUE(recovered->snapshot().Get("hop").value()->Contains(Tup("a", "c")));
}

TEST(ViewManagerOptionsTest, EnableDurabilityConflictBeforeInitialize) {
  std::string base =
      ::testing::TempDir() + "vm_durability_preinit_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  ViewManager::Options options;
  options.strategy = Strategy::kCounting;
  options.durability_dir = base + "_a";
  auto vm = ViewManager::CreateFromText(kHopText, options).value();
  // Configured-but-not-yet-open still counts: a different explicit dir must
  // not silently override what Create() was told.
  EXPECT_EQ(vm->EnableDurability(base + "_b").code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// The RAII Subscription handle.
// ---------------------------------------------------------------------------

TEST(SubscriptionTest, WatchFiresAndUnsubscribesOnDestruction) {
  auto vm = ViewManager::CreateFromText(
      kHopText, testing_util::ManagerOptions(Strategy::kCounting))
                .value();
  Database db;
  testing_util::MustLoadFacts(&db, "link(a,b).");
  IVM_ASSERT_OK(vm->Initialize(db));

  int fired = 0;
  {
    ViewManager::Subscription sub =
        vm->Watch("hop", [&](const std::string&, const Relation&) { ++fired; });
    EXPECT_TRUE(sub.active());
    ChangeSet changes;
    changes.Insert("link", Tup("b", "c"));
    vm->Apply(changes).value();
    EXPECT_EQ(fired, 1);
  }  // sub destroyed -> unsubscribed
  ChangeSet changes;
  changes.Insert("link", Tup("c", "d"));
  vm->Apply(changes).value();
  EXPECT_EQ(fired, 1);
}

TEST(SubscriptionTest, MoveTransfersOwnership) {
  auto vm = ViewManager::CreateFromText(
      kHopText, testing_util::ManagerOptions(Strategy::kCounting))
                .value();
  Database db;
  testing_util::MustLoadFacts(&db, "link(a,b).");
  IVM_ASSERT_OK(vm->Initialize(db));

  int fired = 0;
  ViewManager::Subscription outer;
  EXPECT_FALSE(outer.active());
  {
    ViewManager::Subscription inner =
        vm->Watch("hop", [&](const std::string&, const Relation&) { ++fired; });
    outer = std::move(inner);
    EXPECT_FALSE(inner.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(outer.active());
  }  // inner's destructor must NOT unsubscribe (ownership moved out)
  ChangeSet changes;
  changes.Insert("link", Tup("b", "c"));
  vm->Apply(changes).value();
  EXPECT_EQ(fired, 1);

  outer.Unsubscribe();
  EXPECT_FALSE(outer.active());
  outer.Unsubscribe();  // idempotent
  ChangeSet more;
  more.Insert("link", Tup("c", "d"));
  vm->Apply(more).value();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace ivm
