// Tests for the negative-border incremental baseline.

#include "fpm/negative_border.h"

#include <gtest/gtest.h>

#include "fpm/miner.h"
#include "tests/test_util.h"

namespace gogreen::fpm {
namespace {

using testutil::MinePatterns;
using testutil::RandomDb;

PatternSet Direct(const TransactionDb& db, double fraction) {
  auto miner = CreateMiner(MinerKind::kFpGrowth);
  auto result =
      MinePatterns(*miner, db, AbsoluteSupport(fraction, db.NumTransactions()));
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(NegativeBorderTest, InitializeMatchesDirectMining) {
  const TransactionDb db = RandomDb(141, 300, 30, 5.0);
  NegativeBorderMiner miner(0.05);
  ASSERT_TRUE(miner.Initialize(db).ok());
  PatternSet expected = Direct(db, 0.05);
  PatternSet got = miner.Frequent();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
  EXPECT_GT(miner.BorderSize(), 0u);
}

TEST(NegativeBorderTest, InsertStaysExactOverManyBatches) {
  TransactionDb accumulated = RandomDb(142, 200, 25, 5.0);
  NegativeBorderMiner miner(0.04);
  ASSERT_TRUE(miner.Initialize(accumulated).ok());
  for (int round = 0; round < 4; ++round) {
    const TransactionDb batch = RandomDb(1420 + round, 120, 25, 5.0);
    ASSERT_TRUE(miner.Insert(batch).ok());
    for (Tid t = 0; t < batch.NumTransactions(); ++t) {
      accumulated.AddCanonicalTransaction(batch.Transaction(t));
    }
    PatternSet expected = Direct(accumulated, 0.04);
    PatternSet got = miner.Frequent();
    EXPECT_TRUE(PatternSet::Equal(&expected, &got)) << "round " << round;
    EXPECT_EQ(miner.NumTransactions(), accumulated.NumTransactions());
  }
}

TEST(NegativeBorderTest, HandlesBrandNewItems) {
  TransactionDb db = testutil::MakeDb({{1, 2}, {1, 2}, {1}});
  NegativeBorderMiner miner(0.5);
  ASSERT_TRUE(miner.Initialize(db).ok());

  // A batch dominated by an item never seen before.
  TransactionDb batch;
  for (int i = 0; i < 5; ++i) batch.AddTransaction({9, 1});
  ASSERT_TRUE(miner.Insert(batch).ok());

  TransactionDb all = db;
  for (Tid t = 0; t < batch.NumTransactions(); ++t) {
    all.AddCanonicalTransaction(batch.Transaction(t));
  }
  PatternSet expected = Direct(all, 0.5);
  PatternSet got = miner.Frequent();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
  // {9} and {1,9} must have been discovered via promotion + expansion.
  EXPECT_GT(got.SupportOf(std::vector<ItemId>{9}), 0u);
}

TEST(NegativeBorderTest, DistributionShiftForcesExpansion) {
  // Batches drawn from a different pattern table promote border members.
  NegativeBorderMiner miner(0.05);
  ASSERT_TRUE(miner.Initialize(RandomDb(143, 300, 30, 5.0)).ok());
  ASSERT_TRUE(miner.Insert(RandomDb(999, 300, 30, 8.0)).ok());
  EXPECT_GE(miner.stats().full_db_expansions, 1u);
  EXPECT_GT(miner.stats().candidates_counted, 0u);
}

TEST(NegativeBorderTest, ApiMisuseRejected) {
  NegativeBorderMiner miner(0.1);
  EXPECT_FALSE(miner.Insert(TransactionDb()).ok());  // Before Initialize.
  ASSERT_TRUE(miner.Initialize(RandomDb(144, 50, 10, 4.0)).ok());
  EXPECT_FALSE(miner.Initialize(RandomDb(144, 50, 10, 4.0)).ok());  // Twice.
}

TEST(NegativeBorderTest, ThresholdTracksGrowth) {
  // With fraction 0.5 and 4 transactions, threshold 2; adding 4 more makes
  // it 4 — previously frequent itemsets may demote.
  TransactionDb db = testutil::MakeDb({{1}, {1}, {2}, {2}});
  NegativeBorderMiner miner(0.5);
  ASSERT_TRUE(miner.Initialize(db).ok());
  EXPECT_EQ(miner.Frequent().size(), 2u);  // {1}:2 and {2}:2.

  TransactionDb batch = testutil::MakeDb({{3}, {3}, {3}, {3}});
  ASSERT_TRUE(miner.Insert(batch).ok());
  // n=8, threshold 4: only {3}:4 qualifies.
  PatternSet got = miner.Frequent();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(got.SupportOf(std::vector<ItemId>{3}), 4u);
}

}  // namespace
}  // namespace gogreen::fpm
