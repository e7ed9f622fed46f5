// Run-governor tests: deadlines, memory budgets, and cooperative
// cancellation must degrade every governed miner to a *partial but exact*
// result — the emitted set, filtered to the reported frontier support, is
// bit-for-bit the complete frequent set at that support (checked against
// the sequential Apriori oracle). Also covers the compressor's graceful
// degradation and the run.* metrics flush.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/compressed_db.h"
#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "util/run_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace gogreen {
namespace {

using core::CompressedDb;
using core::CompressionStrategy;
using core::CompressorOptions;
using core::MatcherKind;
using core::RecycleAlgo;
using fpm::MineResult;
using fpm::MinerKind;
using fpm::PatternSet;
using fpm::TransactionDb;
using testutil::MinePatterns;
using testutil::RandomDb;
using testutil::RandomDenseDb;

/// A database and the support to mine it at.
struct GovernedCase {
  const char* name;
  TransactionDb db;
  uint64_t minsup;
};

/// Dense enough that H-Mine hands projections below its root to FP-trees,
/// so governed stops also land inside those trees.
GovernedCase DenseSwitchCase() {
  return {"dense-switch", RandomDenseDb(7, 1200, 8, 4), 360};
}

/// 600 identical rows of 41 items: all 2^41 - 1 itemsets are frequent.
/// Every projection below H-Mine's root is one FP-tree path, up to 40 long,
/// and FP-growth's root tree is one path of 41 nodes, so only a governed
/// stop ends the run.
GovernedCase LongSinglePathCase() {
  std::vector<fpm::ItemId> row(41);
  for (size_t i = 0; i < row.size(); ++i) {
    row[i] = static_cast<fpm::ItemId>(i + 1);
  }
  TransactionDb db;
  for (int t = 0; t < 600; ++t) db.AddTransaction(row);
  return {"long-single-path", std::move(db), 600};
}

constexpr MinerKind kGovernedMiners[] = {
    MinerKind::kHMine, MinerKind::kFpGrowth, MinerKind::kTreeProjection};

constexpr RecycleAlgo kGovernedRecyclers[] = {
    RecycleAlgo::kHMine, RecycleAlgo::kFpGrowth,
    RecycleAlgo::kTreeProjection};

class ScopedThreads {
 public:
  explicit ScopedThreads(size_t n) { ThreadPool::SetGlobalThreads(n); }
  ~ScopedThreads() { ThreadPool::SetGlobalThreads(0); }
};

PatternSet Oracle(const TransactionDb& db, uint64_t minsup) {
  auto miner = fpm::CreateMiner(MinerKind::kApriori);
  auto result = MinePatterns(*miner, db, minsup);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Unified-API spelling of a governed run: one MineRequest carrying the
/// governor (the old MineGoverned wrapper is gone).
Result<MineResult> Governed(fpm::FrequentPatternMiner& miner,
                            const TransactionDb& db, uint64_t minsup,
                            RunContext* ctx) {
  fpm::MineRequest request = fpm::MineRequest::At(minsup);
  request.run_context = ctx;
  return miner.Mine(db, request);
}

Result<MineResult> Governed(core::CompressedMiner& miner,
                            const CompressedDb& cdb, uint64_t minsup,
                            RunContext* ctx) {
  fpm::MineRequest request = fpm::MineRequest::At(minsup);
  request.run_context = ctx;
  return miner.Mine(cdb, request);
}

/// The governed partial-result contract: patterns == the complete frequent
/// set at outcome.frontier_support.
void ExpectExactAtFrontier(const TransactionDb& db, MineResult outcome,
                           const char* what) {
  ASSERT_TRUE(outcome.partial) << what;
  ASSERT_FALSE(outcome.stop_status.ok()) << what;
  PatternSet expected = Oracle(db, outcome.frontier_support);
  EXPECT_TRUE(PatternSet::Equal(&expected, &outcome.patterns))
      << what << ": partial set is not the exact frequent set at frontier "
      << outcome.frontier_support << " (" << expected.size() << " vs "
      << outcome.patterns.size() << " patterns)";
}

// --- RunContext unit behavior -------------------------------------------

TEST(RunContextTest, StartsClean) {
  RunContext ctx;
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_FALSE(ctx.stopped());
  EXPECT_FALSE(ctx.incomplete());
  EXPECT_TRUE(ctx.StopStatus().ok());
}

TEST(RunContextTest, CancelIsStickyAndMapsToStatus) {
  RunContext ctx;
  ctx.RequestCancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.ShouldStop());  // Sticky.
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
  EXPECT_EQ(ctx.StopStatus().code(), StatusCode::kCancelled);
}

TEST(RunContextTest, ExpiredDeadlineTripsOnPoll) {
  RunContext ctx;
  ctx.SetDeadlineAfterMillis(0);
  EXPECT_TRUE(ctx.PollNow());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadlineExceeded);
  EXPECT_EQ(ctx.StopStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(RunContextTest, BudgetBreachTripsButChargeSucceeds) {
  RunContext ctx;
  ctx.SetMemoryBudget(100);
  ctx.AddBytes(60);
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.AddBytes(60);  // 120 > 100: trips, but the bytes stay accounted.
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kMemoryBudgetExceeded);
  EXPECT_EQ(ctx.StopStatus().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.bytes_in_use(), 120u);
  EXPECT_EQ(ctx.bytes_peak(), 120u);
}

TEST(RunContextTest, FirstReasonWins) {
  RunContext ctx;
  ctx.RequestCancel();
  ctx.SetDeadlineAfterMillis(0);
  ctx.PollNow();
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
}

TEST(RunContextTest, MarkIncompleteKeepsLargestFrontier) {
  RunContext ctx;
  ctx.MarkIncomplete(10);
  ctx.MarkIncomplete(7);   // Lower mark must not shrink the frontier.
  ctx.MarkIncomplete(12);
  EXPECT_TRUE(ctx.incomplete());
  EXPECT_EQ(ctx.frontier_support(), 12u);
}

TEST(RunContextTest, ScopedBytesReleasesButKeepsPeak) {
  RunContext ctx;
  {
    ScopedBytes a(&ctx, 1000);
    ScopedBytes b(&ctx, 500);
    EXPECT_EQ(ctx.bytes_in_use(), 1500u);
  }
  EXPECT_EQ(ctx.bytes_in_use(), 0u);
  EXPECT_EQ(ctx.bytes_peak(), 1500u);
  ScopedBytes none(nullptr, 1 << 30);  // Null context: no-op.
}

// --- Governed mining: deterministic stops -------------------------------

TEST(GovernedMineTest, PreCancelledRunIsPartialWithSoundFrontier) {
  const TransactionDb db = RandomDb(7, 300, 50, 8);
  for (MinerKind kind : kGovernedMiners) {
    auto miner = fpm::CreateMiner(kind);
    SCOPED_TRACE(miner->name());
    RunContext ctx;
    ctx.RequestCancel();
    auto outcome = Governed(*miner, db, 3, &ctx);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->partial);
    EXPECT_EQ(outcome->stop_status.code(), StatusCode::kCancelled);
    ExpectExactAtFrontier(db, std::move(outcome).value(), "pre-cancelled");
  }
}

TEST(GovernedMineTest, ExpiredDeadlineIsPartialDeterministically) {
  for (const GovernedCase& c :
       {GovernedCase{"sparse", RandomDb(8, 300, 50, 8), 3},
        DenseSwitchCase(), LongSinglePathCase()}) {
    SCOPED_TRACE(c.name);
    for (MinerKind kind : kGovernedMiners) {
      auto miner = fpm::CreateMiner(kind);
      SCOPED_TRACE(miner->name());
      RunContext ctx;
      ctx.SetDeadlineAfterMillis(0);
      auto outcome = Governed(*miner, c.db, c.minsup, &ctx);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_TRUE(outcome->partial);
      EXPECT_EQ(outcome->stop_status.code(), StatusCode::kDeadlineExceeded);
      ExpectExactAtFrontier(c.db, std::move(outcome).value(), "deadline-0");
    }
  }
}

TEST(GovernedMineTest, DeadlineEndsSinglePathEnumeration) {
  // A deadline that expires mid-run lands inside a single-path subset
  // enumeration: H-Mine's root extensions project onto paths of 0, 1, ...,
  // 40 nodes, and FP-growth's first conditional tree below its root path
  // holds a 39-node path. Both must come back partial, not run 2^39 steps.
  const GovernedCase c = LongSinglePathCase();
  for (MinerKind kind : {MinerKind::kHMine, MinerKind::kFpGrowth}) {
    auto miner = fpm::CreateMiner(kind);
    SCOPED_TRACE(miner->name());
    RunContext ctx;
    ctx.SetDeadlineAfterMillis(20);
    auto outcome = Governed(*miner, c.db, c.minsup, &ctx);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->partial);
    EXPECT_EQ(outcome->stop_status.code(), StatusCode::kDeadlineExceeded);
    ExpectExactAtFrontier(c.db, std::move(outcome).value(), "deadline-20ms");
  }
}

TEST(GovernedMineTest, GenerousGovernorLeavesRunComplete) {
  const TransactionDb db = RandomDb(9, 200, 40, 7);
  const uint64_t minsup = 4;
  PatternSet oracle = Oracle(db, minsup);
  for (MinerKind kind : kGovernedMiners) {
    auto miner = fpm::CreateMiner(kind);
    SCOPED_TRACE(miner->name());
    RunContext ctx;  // No deadline, no budget: must not change the result.
    auto outcome = Governed(*miner, db, minsup, &ctx);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_FALSE(outcome->partial);
    EXPECT_TRUE(outcome->stop_status.ok());
    EXPECT_EQ(outcome->frontier_support, minsup);
    EXPECT_TRUE(PatternSet::Equal(&oracle, &outcome->patterns));
    EXPECT_GT(ctx.bytes_peak(), 0u);  // Miners actually charge scratch.
  }
}

// --- Governed mining: mid-run memory budget -----------------------------

/// Probes a miner's cooperative byte peak, then reruns with a budget set to
/// a fraction of it: the run must stop mid-way with an exact-at-frontier
/// partial set.
void BudgetPartialCase(MinerKind kind, const TransactionDb& db,
                       uint64_t minsup) {
  auto miner = fpm::CreateMiner(kind);
  SCOPED_TRACE(miner->name());

  RunContext probe;
  auto full = Governed(*miner, db, minsup, &probe);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full->partial);
  ASSERT_GT(probe.bytes_peak(), 0u);

  RunContext ctx;
  ctx.SetMemoryBudget(std::max<size_t>(1, probe.bytes_peak() / 2));
  auto outcome = Governed(*miner, db, minsup, &ctx);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->partial);
  EXPECT_EQ(outcome->stop_status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(outcome->frontier_support, minsup);
  ExpectExactAtFrontier(db, std::move(outcome).value(), "budget");
}

TEST(GovernedMineTest, MemoryBudgetYieldsExactPartialSet) {
  // Single worker keeps the probe/budget byte profiles comparable.
  ScopedThreads single(1);
  for (const GovernedCase& c :
       {GovernedCase{"sparse", RandomDb(11, 500, 60, 9), 3},
        DenseSwitchCase()}) {
    SCOPED_TRACE(c.name);
    for (MinerKind kind : kGovernedMiners) {
      BudgetPartialCase(kind, c.db, c.minsup);
    }
  }
}

TEST(GovernedMineTest, MemoryBudgetPartialKeepsFrequentHead) {
  // With descending-frequency subtree order, a mid-run stop must still have
  // completed the most-frequent singletons: the partial set is non-empty.
  // A budget one byte under the peak trips where the peak is reached, which
  // on the dense case is inside an FP-tree below H-Mine's root.
  ScopedThreads single(1);
  for (const GovernedCase& c :
       {GovernedCase{"sparse", RandomDb(12, 500, 60, 9), 3},
        DenseSwitchCase()}) {
    SCOPED_TRACE(c.name);
    auto miner = fpm::CreateMiner(MinerKind::kHMine);
    RunContext probe;
    auto full = Governed(*miner, c.db, c.minsup, &probe);
    ASSERT_TRUE(full.ok());
    ASSERT_GT(probe.bytes_peak(), 0u);

    RunContext ctx;
    ctx.SetMemoryBudget(probe.bytes_peak() - 1);
    auto outcome = Governed(*miner, c.db, c.minsup, &ctx);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->partial);
    EXPECT_GT(outcome->patterns.size(), 0u);
    ExpectExactAtFrontier(c.db, std::move(outcome).value(),
                          "near-peak budget");
  }
}

// --- Governed recycling (compressed-database miners) --------------------

TEST(GovernedRecycleTest, BudgetYieldsExactPartialSetOverCompressedDb) {
  ScopedThreads single(1);
  const TransactionDb db = RandomDb(13, 500, 60, 9);
  const PatternSet fp_old = Oracle(db, 12);
  CompressorOptions copts;
  copts.strategy = CompressionStrategy::kMcp;
  copts.matcher = MatcherKind::kAuto;
  auto cdb = core::CompressDatabase(db, fp_old, copts, nullptr);
  ASSERT_TRUE(cdb.ok()) << cdb.status().ToString();

  for (RecycleAlgo algo : kGovernedRecyclers) {
    auto miner = core::CreateCompressedMiner(algo);
    SCOPED_TRACE(miner->name());

    RunContext probe;
    auto full = Governed(*miner, *cdb, 3, &probe);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_FALSE(full->partial);
    ASSERT_GT(probe.bytes_peak(), 0u);

    RunContext ctx;
    ctx.SetMemoryBudget(std::max<size_t>(1, probe.bytes_peak() / 2));
    auto outcome = Governed(*miner, *cdb, 3, &ctx);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->partial);
    EXPECT_EQ(outcome->stop_status.code(), StatusCode::kResourceExhausted);
    ExpectExactAtFrontier(db, std::move(outcome).value(), "recycle budget");
  }
}

TEST(GovernedRecycleTest, PreCancelledRecycleIsPartial) {
  const TransactionDb db = RandomDb(14, 200, 40, 7);
  const PatternSet fp_old = Oracle(db, 10);
  CompressorOptions copts;
  auto cdb = core::CompressDatabase(db, fp_old, copts, nullptr);
  ASSERT_TRUE(cdb.ok());
  for (RecycleAlgo algo : kGovernedRecyclers) {
    auto miner = core::CreateCompressedMiner(algo);
    SCOPED_TRACE(miner->name());
    RunContext ctx;
    ctx.RequestCancel();
    auto outcome = Governed(*miner, *cdb, 3, &ctx);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->partial);
    EXPECT_EQ(outcome->stop_status.code(), StatusCode::kCancelled);
    ExpectExactAtFrontier(db, std::move(outcome).value(), "recycle cancel");
  }
}

// --- Compressor degradation ---------------------------------------------

TEST(GovernedCompressTest, StoppedCoverLoopStaysLossless) {
  const TransactionDb db = RandomDb(15, 300, 50, 8);
  const PatternSet fp = Oracle(db, 10);

  RunContext ctx;
  ctx.RequestCancel();  // Stop before any tuple is matched.
  CompressorOptions copts;
  copts.run_context = &ctx;
  auto cdb = core::CompressDatabase(db, fp, copts, nullptr);
  ASSERT_TRUE(cdb.ok()) << cdb.status().ToString();

  // Degradation must never mark the run's pattern output incomplete: the
  // result is a valid lossless CompressedDb, just less compressed.
  EXPECT_FALSE(ctx.incomplete());
  const TransactionDb round = cdb->Decompress();
  ASSERT_EQ(round.NumTransactions(), db.NumTransactions());
  for (uint64_t m = 0; m < cdb->NumTuples(); ++m) {
    const fpm::Tid original = cdb->MemberTid(m);
    const auto got = round.Transaction(static_cast<fpm::Tid>(m));
    const auto want = db.Transaction(original);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  }
}

// --- Metrics flush ------------------------------------------------------

TEST(GovernedMineTest, PartialRunFlushesRunMetrics) {
  const auto before = obs::MetricRegistry::Global().Snapshot();
  const TransactionDb db = RandomDb(16, 200, 40, 7);
  auto miner = fpm::CreateMiner(MinerKind::kHMine);
  RunContext ctx;
  ctx.RequestCancel();
  auto outcome = Governed(*miner, db, 3, &ctx);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->partial);
  const auto after = obs::MetricRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterValue("run.partial"),
            before.CounterValue("run.partial") + 1);
  EXPECT_EQ(after.CounterValue("run.cancelled"),
            before.CounterValue("run.cancelled") + 1);
  EXPECT_EQ(after.CounterValue("run.deadline_exceeded"),
            before.CounterValue("run.deadline_exceeded"));
}

}  // namespace
}  // namespace gogreen
