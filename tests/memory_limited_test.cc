// Tests for memory-limited mining (Section 5.3): spill-file round trips,
// the memory model, and exactness of the disk-partitioned miners under
// budgets small enough to force (multi-level) partitioning.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/compressor.h"
#include "core/disk_recycle.h"
#include "fpm/miner.h"
#include "fpm/partition.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace gogreen {
namespace {

using core::CompressedDb;
using core::CompressionStrategy;
using core::MatcherKind;
using fpm::PatternSet;
using fpm::Rank;
using fpm::TransactionDb;
using testutil::MinePatterns;
using testutil::PaperExampleDb;
using testutil::RandomDb;
using testutil::RandomDenseDb;

PatternSet Direct(const TransactionDb& db, uint64_t minsup) {
  auto miner = fpm::CreateMiner(fpm::MinerKind::kHMine);
  auto result = MinePatterns(*miner, db, minsup);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(SpillTest, WriteReadRoundTrip) {
  fpm::SpillWriter writer(TempDir(), "spill_test", 4);
  ASSERT_TRUE(writer.Append(1, std::vector<Rank>{2, 3}).ok());
  ASSERT_TRUE(writer.Append(1, std::vector<Rank>{}).ok());
  ASSERT_TRUE(writer.Append(3, std::vector<Rank>{9}).ok());
  ASSERT_TRUE(writer.Finish().ok());

  auto rows1 = fpm::ReadSpill(writer.PathOf(1));
  ASSERT_TRUE(rows1.ok());
  ASSERT_EQ(rows1->size(), 2u);
  EXPECT_EQ((*rows1)[0], (std::vector<Rank>{2, 3}));
  EXPECT_TRUE((*rows1)[1].empty());

  auto rows3 = fpm::ReadSpill(writer.PathOf(3));
  ASSERT_TRUE(rows3.ok());
  ASSERT_EQ(rows3->size(), 1u);

  // Rank 0 never written: missing file reads as empty.
  auto rows0 = fpm::ReadSpill(writer.PathOf(0));
  ASSERT_TRUE(rows0.ok());
  EXPECT_TRUE(rows0->empty());

  EXPECT_EQ(writer.used_ranks().size(), 2u);
  writer.Cleanup();
  // After cleanup the files are gone.
  auto again = fpm::ReadSpill(writer.PathOf(1));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());
}

TEST(SpillTest, DestructorRemovesFiles) {
  // A writer abandoned mid-run (an IO error returns before Finish) must
  // not leave its partitions behind.
  std::string path1;
  std::string path3;
  {
    fpm::SpillWriter writer(TempDir(), "spill_dtor_test", 4);
    ASSERT_TRUE(writer.Append(1, std::vector<Rank>{2, 3}).ok());
    ASSERT_TRUE(writer.Append(3, std::vector<Rank>{9}).ok());
    path1 = writer.PathOf(1);
    path3 = writer.PathOf(3);
    ASSERT_TRUE(std::filesystem::exists(path1));
  }
  EXPECT_FALSE(std::filesystem::exists(path1));
  EXPECT_FALSE(std::filesystem::exists(path3));
}

TEST(MemoryModelTest, GrowsWithInput) {
  EXPECT_LT(fpm::EstimateHMineMemory(100, 10, 5),
            fpm::EstimateHMineMemory(10000, 1000, 5));
  EXPECT_GT(core::EstimateSliceMineMemory(1000, 100, 10, 50), 0u);
}

TEST(MemoryLimitedHMineTest, UnlimitedBudgetMatchesInMemory) {
  const TransactionDb db = RandomDb(61, 400, 50, 7.0);
  PatternSet expected = Direct(db, 12);
  auto result =
      fpm::MineHMineMemoryLimited(db, 12, SIZE_MAX, TempDir());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  PatternSet got = std::move(result).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
}

TEST(MemoryLimitedHMineTest, TinyBudgetForcesPartitioningAndStaysExact) {
  const TransactionDb db = RandomDb(62, 600, 50, 7.0);
  PatternSet expected = Direct(db, 15);
  // A few KB: the top level must spill, and most first-level partitions
  // will recurse at least once more.
  for (size_t budget : {size_t{2} << 10, size_t{16} << 10, size_t{1} << 20}) {
    SCOPED_TRACE(budget);
    auto result = fpm::MineHMineMemoryLimited(db, 15, budget, TempDir());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    PatternSet got = std::move(result).value();
    EXPECT_TRUE(PatternSet::Equal(&expected, &got))
        << "missing: " << PatternSet::Difference(&expected, &got).size()
        << " extra: " << PatternSet::Difference(&got, &expected).size();
  }
}

TEST(MemoryLimitedHMineTest, DenseDataExact) {
  const TransactionDb db = RandomDenseDb(63, 300, 10, 3);
  PatternSet expected = Direct(db, 200);
  auto result =
      fpm::MineHMineMemoryLimited(db, 200, size_t{8} << 10, TempDir());
  ASSERT_TRUE(result.ok());
  PatternSet got = std::move(result).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
}

TEST(MemoryLimitedHMineTest, RejectsZeroSupport) {
  EXPECT_FALSE(
      fpm::MineHMineMemoryLimited(PaperExampleDb(), 0, 1024, TempDir())
          .ok());
}

CompressedDb Compress(const TransactionDb& db, uint64_t xi_old) {
  auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
  auto fp = MinePatterns(*miner, db, xi_old);
  EXPECT_TRUE(fp.ok());
  auto cdb = core::CompressDatabase(
      db, fp.value(), {CompressionStrategy::kMcp, MatcherKind::kAuto});
  EXPECT_TRUE(cdb.ok());
  return std::move(cdb).value();
}

TEST(MemoryLimitedRecycleTest, UnlimitedBudgetMatchesDirect) {
  const TransactionDb db = RandomDb(64, 400, 50, 7.0);
  const CompressedDb cdb = Compress(db, 40);
  PatternSet expected = Direct(db, 12);
  auto result =
      core::MineRecycleHMMemoryLimited(cdb, 12, SIZE_MAX, TempDir());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  PatternSet got = std::move(result).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
}

TEST(MemoryLimitedRecycleTest, TinyBudgetStaysExact) {
  const TransactionDb db = RandomDb(65, 600, 50, 7.0);
  const CompressedDb cdb = Compress(db, 50);
  PatternSet expected = Direct(db, 15);
  for (size_t budget : {size_t{2} << 10, size_t{32} << 10}) {
    SCOPED_TRACE(budget);
    auto result =
        core::MineRecycleHMMemoryLimited(cdb, 15, budget, TempDir());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    PatternSet got = std::move(result).value();
    EXPECT_TRUE(PatternSet::Equal(&expected, &got))
        << "missing: " << PatternSet::Difference(&expected, &got).size()
        << " extra: " << PatternSet::Difference(&got, &expected).size();
  }
}

TEST(MemoryLimitedRecycleTest, DenseDataExactUnderBudget) {
  const TransactionDb db = RandomDenseDb(66, 300, 10, 3);
  const CompressedDb cdb = Compress(db, 250);
  PatternSet expected = Direct(db, 180);
  auto result =
      core::MineRecycleHMMemoryLimited(cdb, 180, size_t{4} << 10, TempDir());
  ASSERT_TRUE(result.ok());
  PatternSet got = std::move(result).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
}

TEST(MemoryLimitedRecycleTest, PaperExampleUnderSmallBudget) {
  const TransactionDb db = PaperExampleDb();
  const CompressedDb cdb = Compress(db, 3);
  PatternSet expected = Direct(db, 2);
  auto result = core::MineRecycleHMMemoryLimited(cdb, 2, 1, TempDir());
  ASSERT_TRUE(result.ok());
  PatternSet got = std::move(result).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));
}

}  // namespace
}  // namespace gogreen
