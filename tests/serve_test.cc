// Differential test for the serving layer: every route the MiningService
// can take — scratch, recycle-seeded, filter-down, exact cache hit — must
// return a pattern set canonically identical to a direct (storeless) mine of
// the same database at the same support, on all four example datasets, at 1
// and 4 threads. Plus: partial governed results are cached at their frontier
// (the paper's relax-recycle loop), constrained requests share support-
// complete seeds (and a constrained relax recycles), the store budget holds
// under service load, and one analyst's relax/tighten ladder takes the
// expected route at every step, recycling from recycled sets.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compressed_db.h"
#include "core/compressor.h"
#include "core/seed_selection.h"
#include "data/datasets.h"
#include "fpm/constraints.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "serve/mining_service.h"
#include "serve/pattern_store.h"
#include "tests/test_util.h"
#include "util/run_context.h"

namespace gogreen {
namespace {

using core::SeedRoute;
using fpm::MineRequest;
using fpm::MineResult;
using fpm::PatternSet;
using fpm::TransactionDb;
using serve::MiningService;
using serve::ServeStats;
using serve::StoreKey;
using testutil::MinePatterns;

/// Direct mine with no store involved: the correctness oracle for every
/// service route.
PatternSet DirectMine(const TransactionDb& db, uint64_t minsup) {
  auto miner = fpm::CreateMiner(fpm::MinerKind::kHMine);
  auto result = MinePatterns(*miner, db, minsup);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void ExpectCanonicallyEqual(PatternSet expected, PatternSet got,
                            const char* what) {
  EXPECT_TRUE(PatternSet::Equal(&expected, &got))
      << what << ": " << expected.size() << " vs " << got.size()
      << " patterns";
}

MineResult ServeAt(MiningService& service, uint64_t minsup, size_t threads,
                   ServeStats* stats = nullptr) {
  MineRequest request = MineRequest::At(minsup);
  request.threads = threads;
  auto result = service.Mine(request, stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

struct ServeParam {
  data::DatasetId id;
  size_t threads;
};

std::string ServeParamName(
    const ::testing::TestParamInfo<ServeParam>& tpi) {
  std::string name = data::GetDatasetSpec(tpi.param.id).name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_t" + std::to_string(tpi.param.threads);
}

class ServeDifferentialTest : public ::testing::TestWithParam<ServeParam> {};

TEST_P(ServeDifferentialTest, AllRoutesMatchDirectMining) {
  const ServeParam& p = GetParam();
  const data::DatasetSpec& spec = data::GetDatasetSpec(p.id);
  auto made = data::MakeDataset(p.id, BenchScale::kSmoke);
  ASSERT_TRUE(made.ok());
  const TransactionDb db = std::move(made).value();

  // Supports from the paper's own sweep for this dataset: mine tight
  // (xi_old), relax below it (recycle), then query in between (filter-down
  // from the relaxed set) and repeat (exact hit).
  const uint64_t xi_hi =
      fpm::AbsoluteSupport(spec.xi_old, db.NumTransactions());
  const uint64_t xi_lo =
      fpm::AbsoluteSupport(spec.xi_new_sweep.front(), db.NumTransactions());
  ASSERT_LT(xi_lo, xi_hi) << spec.name;
  const uint64_t xi_mid = (xi_lo + xi_hi) / 2;
  ASSERT_GT(xi_mid, xi_lo);

  MiningService service(db, spec.name);

  // Route 1: cold store -> scratch.
  ServeStats stats;
  MineResult scratch = ServeAt(service, xi_hi, p.threads, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kNone);
  EXPECT_FALSE(scratch.partial);
  ExpectCanonicallyEqual(DirectMine(db, xi_hi), std::move(scratch.patterns),
                         "scratch route");

  // Route 2: relaxed support -> recycle from the xi_hi set.
  MineResult recycled = ServeAt(service, xi_lo, p.threads, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, xi_hi);
  ExpectCanonicallyEqual(DirectMine(db, xi_lo), std::move(recycled.patterns),
                         "recycle route");

  // Route 3: between the two cached sets -> filter-down from xi_lo.
  MineResult filtered = ServeAt(service, xi_mid, p.threads, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kFilterDown);
  EXPECT_EQ(stats.seed_support, xi_lo);
  ExpectCanonicallyEqual(DirectMine(db, xi_mid), std::move(filtered.patterns),
                         "filter-down route");

  // Route 4: repeat queries -> exact cache hits, still the same answers.
  for (uint64_t minsup : {xi_hi, xi_lo, xi_mid}) {
    MineResult hit = ServeAt(service, minsup, p.threads, &stats);
    EXPECT_EQ(stats.route, SeedRoute::kExact);
    EXPECT_EQ(stats.seed_support, minsup);
    ExpectCanonicallyEqual(DirectMine(db, minsup), std::move(hit.patterns),
                           "exact-hit route");
  }

  // The store held its budget through all of it.
  EXPECT_LE(service.store().bytes_in_use(), service.store().byte_budget());
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, ServeDifferentialTest,
    ::testing::Values(
        ServeParam{data::DatasetId::kWeatherSub, 1},
        ServeParam{data::DatasetId::kWeatherSub, 4},
        ServeParam{data::DatasetId::kForestSub, 1},
        ServeParam{data::DatasetId::kForestSub, 4},
        ServeParam{data::DatasetId::kConnect4Sub, 1},
        ServeParam{data::DatasetId::kConnect4Sub, 4},
        ServeParam{data::DatasetId::kPumsbSub, 1},
        ServeParam{data::DatasetId::kPumsbSub, 4}),
    ServeParamName);

// --- Non-parameterized service behaviors (paper example database). ---

class ServeBehaviorTest : public ::testing::Test {
 protected:
  ServeBehaviorTest() : db_(testutil::PaperExampleDb()) {}
  TransactionDb db_;
};

TEST_F(ServeBehaviorTest, ConstrainedRequestsShareSupportCompleteSeeds) {
  MiningService service(db_, "paper");
  // Warm the support-complete cache.
  (void)ServeAt(service, 2, /*threads=*/0);

  fpm::ConstraintSet constraints(/*min_support=*/2);
  constraints.Add(fpm::MakeMinLength(2));
  MineRequest request = MineRequest::At(2);
  request.constraints = &constraints;
  ServeStats stats;
  auto result = service.Mine(request, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Served from the cached support-complete set, then filtered.
  EXPECT_EQ(stats.route, SeedRoute::kExact);
  PatternSet expected = DirectMine(db_, 2).FilterByMinLength(2);
  ExpectCanonicallyEqual(std::move(expected), std::move(result->patterns),
                         "constrained request");

  // The filtered set was cached under its fingerprint: an exact repeat hits.
  auto repeat = service.Mine(request, &stats);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(stats.route, SeedRoute::kExact);
}

TEST_F(ServeBehaviorTest, SupportOnlyAndConstrainedEntriesDoNotCollide) {
  MiningService service(db_, "paper");
  fpm::ConstraintSet constraints(/*min_support=*/2);
  constraints.Add(fpm::MakeMinLength(3));
  MineRequest request = MineRequest::At(2);
  request.constraints = &constraints;
  auto constrained = service.Mine(request);
  ASSERT_TRUE(constrained.ok());

  // A later unconstrained query at the same support must not be answered
  // from the (smaller) filtered set.
  MineResult plain = ServeAt(service, 2, /*threads=*/0);
  ExpectCanonicallyEqual(DirectMine(db_, 2), std::move(plain.patterns),
                         "unconstrained after constrained");
}

TEST_F(ServeBehaviorTest, PartialGovernedResultIsCachedAtFrontier) {
  MiningService service(db_, "paper");
  RunContext ctx;
  ctx.RequestCancel();  // Deterministic immediate stop.
  MineRequest request = MineRequest::At(2);
  request.run_context = &ctx;
  ServeStats stats;
  auto result = service.Mine(request, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  EXPECT_GT(result->frontier_support, 2u);
  EXPECT_TRUE(stats.partial);

  // The partial set is exact at its frontier, so the store keeps it there —
  // and a later query at the frontier support is an exact hit.
  StoreKey key;
  key.dataset_id = "paper";
  key.min_support = result->frontier_support;
  EXPECT_NE(service.store().Get(key), nullptr);
  MineResult later = ServeAt(service, result->frontier_support, 0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kExact);
  ExpectCanonicallyEqual(DirectMine(db_, result->frontier_support),
                         std::move(later.patterns),
                         "query at cached frontier");
}

TEST_F(ServeBehaviorTest, RecycleMemoizesTheCompressedImage) {
  MiningService service(db_, "paper");
  (void)ServeAt(service, 4, /*threads=*/0);  // Scratch at xi_old = 4.
  ServeStats stats;
  // Recycle: builds + memoizes the image.
  (void)ServeAt(service, 3, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, 4u);
  EXPECT_EQ(service.store().stats().compressed_images, 1u);
}

TEST_F(ServeBehaviorTest, RecycleReusesAMemoizedImageWithoutRecompressing) {
  // Seed the store by hand with a pattern set *and* its compressed image so
  // the recycle route's image lookup deterministically hits.
  MiningService service(db_, "paper");
  PatternSet fp_old = DirectMine(db_, 4);
  auto compressed = core::CompressDatabase(
      db_, fp_old,
      {core::CompressionStrategy::kMcp, core::MatcherKind::kAuto});
  ASSERT_TRUE(compressed.ok());
  StoreKey key;
  key.dataset_id = "paper";
  key.min_support = 4;
  ASSERT_TRUE(service.store().Put(key, fp_old, db_.NumTransactions()));
  service.store().PutCompressed(
      key, std::make_shared<const core::CompressedDb>(
               std::move(compressed).value()));

  ServeStats stats;
  MineResult result = ServeAt(service, 2, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, 4u);
  // The memoized image skipped the compression pass entirely.
  EXPECT_EQ(stats.compress_seconds, 0.0);
  ExpectCanonicallyEqual(DirectMine(db_, 2), std::move(result.patterns),
                         "recycle from memoized image");
}

TEST_F(ServeBehaviorTest, TinyBudgetServiceStaysCorrectUnderEviction) {
  serve::ServiceOptions options;
  options.store.byte_budget = 1;  // Nothing fits: every Put is rejected.
  MiningService service(db_, "paper", options);
  for (uint64_t minsup : {4u, 2u, 3u, 2u}) {
    ServeStats stats;
    MineResult result = ServeAt(service, minsup, 0, &stats);
    // With no cache every query falls back to scratch — and stays right.
    EXPECT_EQ(stats.route, SeedRoute::kNone);
    ExpectCanonicallyEqual(DirectMine(db_, minsup),
                           std::move(result.patterns),
                           "mining with a zero-capacity store");
    EXPECT_EQ(service.store().bytes_in_use(), 0u);
  }
}

TEST_F(ServeBehaviorTest, ConstrainedRelaxUsesRecycleRoute) {
  // A constrained query relaxes its support with the same length
  // constraint: the service recycles the support-complete set it cached
  // for the first query, then filters.
  const TransactionDb db = testutil::RandomDb(36, 400, 40, 6.0);
  MiningService service(db, "random");
  fpm::ConstraintSet first(/*min_support=*/20);
  first.Add(fpm::MakeMinLength(2));
  MineRequest request;
  request.constraints = &first;
  ServeStats stats;
  ASSERT_TRUE(service.Mine(request, &stats).ok());
  EXPECT_EQ(stats.route, SeedRoute::kNone);

  fpm::ConstraintSet relaxed(/*min_support=*/8);
  relaxed.Add(fpm::MakeMinLength(2));
  request.constraints = &relaxed;
  auto result = service.Mine(request, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, 20u);
  ExpectCanonicallyEqual(relaxed.Filter(DirectMine(db, 8)),
                         std::move(result->patterns), "constrained relax");
}

// --- One analyst's session of relaxed and tightened supports, as the
// service's routes answer it (paper §2's recycling loop). ---

TEST(RecyclerTest, FirstMineIsInitialPath) {
  MiningService service(testutil::PaperExampleDb(), "paper");
  ServeStats stats;
  MineResult result = ServeAt(service, 3, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kNone);
  EXPECT_EQ(result.patterns.size(), 11u);
  EXPECT_NE(service.store().Get({"paper", "", 3}), nullptr);
}

TEST(RecyclerTest, TightenedUsesFilterPath) {
  const TransactionDb db = testutil::RandomDb(31, 500, 50, 7.0);
  MiningService service(db, "random");
  (void)ServeAt(service, 10, /*threads=*/0);
  ServeStats stats;
  MineResult result = ServeAt(service, 25, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kFilterDown);
  EXPECT_EQ(stats.seed_support, 10u);
  ExpectCanonicallyEqual(DirectMine(db, 25), std::move(result.patterns),
                         "tightened");
  // The richer set stays cached for future relaxations.
  EXPECT_NE(service.store().Get({"random", "", 10}), nullptr);
}

TEST(RecyclerTest, RelaxedUsesRecycledPathAndIsExact) {
  const TransactionDb db = testutil::RandomDb(32, 500, 50, 7.0);
  MiningService service(db, "random");
  (void)ServeAt(service, 40, /*threads=*/0);
  ServeStats stats;
  MineResult result = ServeAt(service, 12, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, 40u);
  EXPECT_LE(stats.compression_ratio, 1.0);
  ExpectCanonicallyEqual(DirectMine(db, 12), std::move(result.patterns),
                         "relaxed");
  EXPECT_NE(service.store().Get({"random", "", 12}), nullptr);
}

TEST(RecyclerTest, IterativeDrillDownStaysCorrect) {
  // The introduction's workflow, with a tightening thrown in. Supports 20
  // and 10 recycle sets that were themselves recycled.
  const TransactionDb db = testutil::RandomDb(33, 800, 60, 8.0);
  MiningService service(db, "random");
  const struct {
    uint64_t support;
    SeedRoute route;
    uint64_t seed;
  } kLadder[] = {{60, SeedRoute::kNone, 0},
                 {35, SeedRoute::kRecycle, 60},
                 {50, SeedRoute::kFilterDown, 35},
                 {20, SeedRoute::kRecycle, 35},
                 {10, SeedRoute::kRecycle, 20}};
  for (const auto& rung : kLadder) {
    SCOPED_TRACE(rung.support);
    ServeStats stats;
    MineResult result = ServeAt(service, rung.support, 0, &stats);
    EXPECT_EQ(stats.route, rung.route);
    EXPECT_EQ(stats.seed_support, rung.seed);
    ExpectCanonicallyEqual(DirectMine(db, rung.support),
                           std::move(result.patterns), "drill-down rung");
  }
}

TEST(RecyclerTest, AllAlgoStrategyCombinationsAgree) {
  const TransactionDb db = testutil::RandomDb(34, 300, 40, 6.0);
  const PatternSet expected = DirectMine(db, 8);
  for (fpm::MinerKind base :
       {fpm::MinerKind::kHMine, fpm::MinerKind::kFpGrowth,
        fpm::MinerKind::kTreeProjection}) {
    for (core::CompressionStrategy strategy :
         {core::CompressionStrategy::kMcp, core::CompressionStrategy::kMlp}) {
      SCOPED_TRACE(testing::Message()
                   << fpm::MinerKindName(base) << "/"
                   << core::CompressionStrategyName(strategy));
      serve::ServiceOptions options;
      options.base_miner = base;
      options.strategy = strategy;
      MiningService service(db, "random", options);
      (void)ServeAt(service, 30, /*threads=*/0);
      ServeStats stats;
      MineResult result = ServeAt(service, 8, /*threads=*/0, &stats);
      EXPECT_EQ(stats.route, SeedRoute::kRecycle);
      ExpectCanonicallyEqual(expected, std::move(result.patterns),
                             "recycled");
    }
  }
}

TEST(RecyclerTest, SeedCacheEnablesMultiUserRecycling) {
  // User A's result, mined elsewhere, lands in the shared store; user B's
  // deeper query goes straight to the recycle route.
  const TransactionDb db = testutil::RandomDb(35, 400, 40, 6.0);
  MiningService service(db, "random");
  ASSERT_TRUE(service.store().Put({"random", "", 30}, DirectMine(db, 30),
                                  db.NumTransactions()));
  ServeStats stats;
  MineResult result = ServeAt(service, 10, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, 30u);
  ExpectCanonicallyEqual(DirectMine(db, 10), std::move(result.patterns),
                         "recycled from a shared seed");
}

TEST(RecyclerTest, ZeroSupportRejected) {
  MiningService service(testutil::PaperExampleDb(), "paper");
  EXPECT_EQ(service.Mine(MineRequest::At(0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RecyclerTest, StatsReportPatternCounts) {
  MiningService service(testutil::PaperExampleDb(), "paper");
  ServeStats stats;
  (void)ServeAt(service, 3, /*threads=*/0, &stats);
  EXPECT_EQ(stats.patterns_returned, 11u);
  EXPECT_EQ(service.store().stats().entries, 1u);
}

}  // namespace
}  // namespace gogreen
