// Tests for the MineRequest/MineResult API: effective-support resolution,
// constraint filtering, governed determinism, and per-request thread
// counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "fpm/constraints.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "tests/test_util.h"
#include "util/run_context.h"

namespace gogreen {
namespace {

using fpm::ConstraintSet;
using fpm::MineRequest;
using fpm::PatternSet;
using fpm::TransactionDb;

void ExpectIdentical(const PatternSet& expected, const PatternSet& got,
                     const char* what) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], got[i]) << what << " diverges at " << i;
  }
}

TEST(MineRequestTest, EffectiveMinSupportPicksTheMaximum) {
  MineRequest request = MineRequest::At(5);
  auto support = request.EffectiveMinSupport();
  ASSERT_TRUE(support.ok());
  EXPECT_EQ(support.value(), 5u);

  ConstraintSet tighter(/*min_support=*/9);
  request.constraints = &tighter;
  support = request.EffectiveMinSupport();
  ASSERT_TRUE(support.ok());
  EXPECT_EQ(support.value(), 9u);

  ConstraintSet looser(/*min_support=*/3);
  request.constraints = &looser;
  support = request.EffectiveMinSupport();
  ASSERT_TRUE(support.ok());
  EXPECT_EQ(support.value(), 5u);

  // Either side alone may carry the threshold.
  MineRequest from_constraints;
  from_constraints.constraints = &tighter;
  support = from_constraints.EffectiveMinSupport();
  ASSERT_TRUE(support.ok());
  EXPECT_EQ(support.value(), 9u);
}

TEST(MineRequestTest, EffectiveMinSupportRejectsZero) {
  MineRequest request;
  EXPECT_EQ(request.EffectiveMinSupport().status().code(),
            StatusCode::kInvalidArgument);

  ConstraintSet zero(/*min_support=*/0);
  request.constraints = &zero;
  EXPECT_EQ(request.EffectiveMinSupport().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MineRequestTest, ResolveSupportRejectsOutOfRangeValues) {
  EXPECT_EQ(fpm::ResolveSupport(0.5, 10).value(), 5u);
  EXPECT_EQ(fpm::ResolveSupport(7.9, 10).value(), 7u);
  EXPECT_EQ(fpm::ResolveSupport(18446744073709549568.0, 10).value(),
            18446744073709549568u);  // The largest double below 2^64.
  for (double bad : {0.0, -1.0, std::nan(""), HUGE_VAL, 1e300,
                     18446744073709551616.0}) {
    const auto support = fpm::ResolveSupport(bad, 10);
    EXPECT_EQ(support.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  const Status nan_status = fpm::ResolveSupport(std::nan(""), 10).status();
  EXPECT_NE(nan_status.message().find("nan"), std::string::npos)
      << nan_status.ToString();
}

TEST(MineRequestTest, UnifiedMineAppliesConstraints) {
  const TransactionDb db = testutil::PaperExampleDb();
  ConstraintSet constraints(/*min_support=*/2);
  constraints.Add(fpm::MakeMinLength(2));

  auto miner = fpm::CreateMiner(fpm::MinerKind::kHMine);
  MineRequest request = MineRequest::At(2);
  request.constraints = &constraints;
  auto result = miner->Mine(db, request);
  ASSERT_TRUE(result.ok());

  auto plain =
      fpm::CreateMiner(fpm::MinerKind::kHMine)->Mine(db, MineRequest::At(2));
  ASSERT_TRUE(plain.ok());
  PatternSet expected = constraints.Filter(plain->patterns);
  ExpectIdentical(expected, result->patterns, "constrained unified mine");
  ASSERT_GT(result->patterns.size(), 0u);
  for (const fpm::Pattern& p : result->patterns) {
    EXPECT_GE(p.size(), 2u);
  }
}

TEST(MineRequestTest, GovernedMineIsDeterministicWhenCancelled) {
  const TransactionDb db = testutil::RandomDb(23, 300, 40, 6.0);

  // Two identical pre-cancelled governed runs must agree exactly: the
  // partial-result frontier is a deterministic property of the request,
  // not of scheduling.
  RunContext first_ctx;
  first_ctx.RequestCancel();
  MineRequest first_request = MineRequest::At(15);
  first_request.run_context = &first_ctx;
  auto first = fpm::CreateMiner(fpm::MinerKind::kHMine)->Mine(db,
                                                              first_request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->partial);

  RunContext ctx;
  ctx.RequestCancel();
  MineRequest request = MineRequest::At(15);
  request.run_context = &ctx;
  auto unified = fpm::CreateMiner(fpm::MinerKind::kHMine)->Mine(db, request);
  ASSERT_TRUE(unified.ok());
  EXPECT_TRUE(unified->partial);
  EXPECT_EQ(unified->frontier_support, first->frontier_support);
  EXPECT_EQ(unified->stop_status.code(), StatusCode::kCancelled);
  ExpectIdentical(first->patterns, unified->patterns,
                  "repeated governed unified mine");
}

TEST(MineRequestTest, ThreadsFieldIsLocalToTheRequestAndExact) {
  const TransactionDb db = testutil::RandomDb(31, 400, 50, 7.0);
  auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
  auto sequential = miner->Mine(db, MineRequest::At(12));
  ASSERT_TRUE(sequential.ok());

  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    MineRequest request = MineRequest::At(12);
    request.threads = threads;
    auto parallel = fpm::CreateMiner(fpm::MinerKind::kFpGrowth)
                        ->Mine(db, request);
    ASSERT_TRUE(parallel.ok());
    ExpectIdentical(sequential->patterns, parallel->patterns,
                    "per-request thread count");
    EXPECT_EQ(sequential->stats.items_scanned,
              parallel->stats.items_scanned);
  }
}

}  // namespace
}  // namespace gogreen
