// Tests for constraint pushdown mining: exactness vs complete-set +
// post-filter, the pruning effect, and the compressed variant.

#include "core/constrained_mine.h"

#include <gtest/gtest.h>

#include "core/compressor.h"
#include "fpm/miner.h"
#include "tests/test_util.h"

namespace gogreen::core {
namespace {

using fpm::ConstraintSet;
using fpm::ItemId;
using fpm::MakeItemSubset;
using fpm::MakeMaxLength;
using fpm::MakeMaxSum;
using fpm::MakeMinAvg;
using fpm::MakeMinLength;
using fpm::MakeRequiresAny;
using fpm::PatternSet;
using fpm::TransactionDb;
using testutil::MinePatterns;
using testutil::RandomDb;

/// Ground truth: complete mine then filter.
PatternSet Expected(const TransactionDb& db, const ConstraintSet& cs) {
  auto fp = MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kFpGrowth), db,
                         cs.min_support());
  EXPECT_TRUE(fp.ok());
  return cs.Filter(*fp);
}

TEST(ConstrainedMineTest, MaxLengthPushdownExact) {
  const TransactionDb db = RandomDb(91, 400, 40, 6.0);
  ConstraintSet cs(12);
  cs.Add(MakeMaxLength(2));
  PatternSet expected = Expected(db, cs);
  auto got = MineConstrained(db, cs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  PatternSet gs = std::move(got).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &gs));
}

TEST(ConstrainedMineTest, PushdownPrunesSearchSpace) {
  const TransactionDb db = RandomDb(92, 500, 40, 7.0);
  ConstraintSet unconstrained(10);
  ConstraintSet constrained(10);
  constrained.Add(MakeMaxLength(1));

  fpm::MiningStats free_stats;
  fpm::MiningStats pruned_stats;
  ASSERT_TRUE(MineConstrained(db, unconstrained, &free_stats).ok());
  ASSERT_TRUE(MineConstrained(db, constrained, &pruned_stats).ok());
  // With |X| <= 1, only the first level's projections are ever built and
  // nothing is scanned below it.
  EXPECT_LT(pruned_stats.projections_built,
            free_stats.projections_built / 2);
  EXPECT_LT(pruned_stats.items_scanned, free_stats.items_scanned);
}

TEST(ConstrainedMineTest, MaxSumPushdownExact) {
  const TransactionDb db = RandomDb(93, 300, 30, 5.0);
  std::vector<double> prices(30);
  for (size_t i = 0; i < prices.size(); ++i) {
    prices[i] = static_cast<double>(i);
  }
  ConstraintSet cs(10);
  cs.Add(MakeMaxSum(prices, 25.0));
  PatternSet expected = Expected(db, cs);
  auto got = MineConstrained(db, cs);
  ASSERT_TRUE(got.ok());
  PatternSet gs = std::move(got).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &gs));
}

TEST(ConstrainedMineTest, MonotoneConstraintsPostFiltered) {
  // Monotone constraints cannot prune prefixes (a failing prefix may have
  // passing extensions); correctness must still hold via the post-filter.
  const TransactionDb db = RandomDb(94, 300, 30, 5.0);
  ConstraintSet cs(10);
  cs.Add(MakeMinLength(2));
  PatternSet expected = Expected(db, cs);
  auto got = MineConstrained(db, cs);
  ASSERT_TRUE(got.ok());
  PatternSet gs = std::move(got).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &gs));
  for (const auto& p : gs) EXPECT_GE(p.size(), 2u);
}

TEST(ConstrainedMineTest, MixedCategories) {
  const TransactionDb db = RandomDb(95, 400, 35, 6.0);
  std::vector<double> values(35);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i % 7);
  }
  ConstraintSet cs(12);
  cs.Add(MakeMaxLength(3));             // Anti-monotone: pushed down.
  cs.Add(MakeMinLength(2));             // Monotone: post-filter.
  cs.Add(MakeMinAvg(values, 2.0));      // Convertible: post-filter.
  cs.Add(MakeRequiresAny({0, 1, 2, 3, 4, 5}));  // Succinct: post-filter.
  PatternSet expected = Expected(db, cs);
  auto got = MineConstrained(db, cs);
  ASSERT_TRUE(got.ok());
  PatternSet gs = std::move(got).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &gs));
}

TEST(ConstrainedMineTest, CompressedVariantExact) {
  const TransactionDb db = RandomDb(96, 400, 40, 6.0);
  auto fp_old = MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kHMine), db, 40);
  ASSERT_TRUE(fp_old.ok());
  auto cdb = CompressDatabase(
      db, *fp_old, {CompressionStrategy::kMcp, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());

  ConstraintSet cs(10);
  cs.Add(MakeMaxLength(3));
  PatternSet expected = Expected(db, cs);
  auto got = MineConstrainedCompressed(*cdb, cs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  PatternSet gs = std::move(got).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &gs));
}

TEST(ConstrainedMineTest, ItemSubsetPushdown) {
  const TransactionDb db = RandomDb(97, 300, 30, 5.0);
  ConstraintSet cs(8);
  // Succinct AND anti-monotone in our taxonomy? MakeItemSubset is
  // classified succinct, so it is post-filtered; result must match anyway.
  cs.Add(MakeItemSubset({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  PatternSet expected = Expected(db, cs);
  auto got = MineConstrained(db, cs);
  ASSERT_TRUE(got.ok());
  PatternSet gs = std::move(got).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &gs));
}

TEST(ConstrainedMineTest, ZeroSupportRejected) {
  const TransactionDb db = RandomDb(98, 50, 10, 4.0);
  ConstraintSet cs(0);
  EXPECT_FALSE(MineConstrained(db, cs).ok());
  CompressedDb cdb;
  EXPECT_FALSE(MineConstrainedCompressed(cdb, cs).ok());
}

TEST(ConstrainedMineTest, NoConstraintsEqualsPlainMining) {
  const TransactionDb db = RandomDb(99, 300, 30, 5.0);
  ConstraintSet cs(12);
  auto got = MineConstrained(db, cs);
  ASSERT_TRUE(got.ok());
  auto plain = MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kHMine), db, 12);
  ASSERT_TRUE(plain.ok());
  PatternSet a = std::move(got).value();
  PatternSet b = std::move(plain).value();
  EXPECT_TRUE(PatternSet::Equal(&a, &b));
}

}  // namespace
}  // namespace gogreen::core
