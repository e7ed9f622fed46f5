// Tests for incremental mining with recycling: exactness after inserts,
// deletes, threshold changes, and combinations thereof.

#include "core/incremental.h"

#include <gtest/gtest.h>

#include "fpm/miner.h"
#include "tests/test_util.h"

namespace gogreen::core {
namespace {

using fpm::PatternSet;
using fpm::TransactionDb;
using testutil::MinePatterns;
using testutil::RandomDb;

PatternSet Direct(const TransactionDb& db, uint64_t minsup) {
  auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
  auto result = MinePatterns(*miner, db, minsup);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(IncrementalTest, FirstMineIsInitial) {
  IncrementalSession session(RandomDb(71, 200, 30, 5.0));
  auto result = session.Mine(10);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(session.last_recycled());
  EXPECT_TRUE(session.has_cache());
}

TEST(IncrementalTest, ExactAfterInsertions) {
  IncrementalSession session(RandomDb(72, 300, 30, 5.0));
  ASSERT_TRUE(session.Mine(20).ok());

  const TransactionDb delta = RandomDb(720, 150, 30, 5.0);
  session.AddBatch(delta);
  EXPECT_EQ(session.db().NumTransactions(), 450u);

  auto result = session.Mine(20);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(session.last_recycled());
  PatternSet expected = Direct(session.db(), 20);
  PatternSet got = std::move(result).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
}

TEST(IncrementalTest, ExactAfterDeletions) {
  IncrementalSession session(RandomDb(73, 400, 30, 5.0));
  ASSERT_TRUE(session.Mine(25).ok());

  const size_t removed = session.RemoveIf(
      [](fpm::Tid t, fpm::ItemSpan) { return t % 3 == 0; });
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(session.db().NumTransactions(), 400u - removed);

  auto result = session.Mine(25);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(session.last_recycled());
  PatternSet expected = Direct(session.db(), 25);
  PatternSet got = std::move(result).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
}

TEST(IncrementalTest, ExactWhenBothDataAndThresholdChange) {
  // The scenario classic incremental techniques struggle with: the data
  // grows AND the support drops sharply at the same time.
  IncrementalSession session(RandomDb(74, 300, 40, 6.0));
  ASSERT_TRUE(session.Mine(40).ok());

  session.AddBatch(RandomDb(740, 200, 40, 6.0));
  auto result = session.Mine(8);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(session.last_recycled());
  PatternSet expected = Direct(session.db(), 8);
  PatternSet got = std::move(result).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
}

TEST(IncrementalTest, RepeatedRoundsOfGrowth) {
  IncrementalSession session(RandomDb(75, 200, 30, 5.0));
  ASSERT_TRUE(session.Mine(15).ok());
  for (int round = 0; round < 4; ++round) {
    session.AddBatch(RandomDb(750 + round, 100, 30, 5.0));
    auto result = session.Mine(15);
    ASSERT_TRUE(result.ok());
    PatternSet expected = Direct(session.db(), 15);
    PatternSet got = std::move(result).value();
    EXPECT_TRUE(PatternSet::Equal(&expected, &got)) << "round " << round;
  }
}

TEST(IncrementalTest, TighteningAfterDataChangeStillExact) {
  // Even a *raised* threshold cannot reuse stale supports by filtering;
  // the session must re-mine (recycled) and still be exact.
  IncrementalSession session(RandomDb(76, 300, 30, 5.0));
  ASSERT_TRUE(session.Mine(10).ok());
  session.AddTransaction({1, 2, 3});
  auto result = session.Mine(30);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(session.last_recycled());
  PatternSet expected = Direct(session.db(), 30);
  PatternSet got = std::move(result).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
}

TEST(IncrementalTest, EmptyCacheAfterAllPatternsVanish) {
  // If the first round returns nothing, later rounds mine from scratch
  // rather than compressing with an empty set.
  TransactionDb db;
  db.AddTransaction({1});
  db.AddTransaction({2});
  IncrementalSession session(std::move(db));
  auto r1 = session.Mine(2);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->empty());

  session.AddTransaction({1, 2});
  auto r2 = session.Mine(2);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(session.last_recycled());
  EXPECT_EQ(r2->size(), 2u);  // {1}:2 and {2}:2.
}

TEST(IncrementalTest, ZeroSupportRejected) {
  IncrementalSession session(RandomDb(78, 50, 10, 4.0));
  EXPECT_FALSE(session.Mine(0).ok());
}

}  // namespace
}  // namespace gogreen::core
