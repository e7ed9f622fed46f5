// End-to-end correctness of the recycling pipeline: mine FP at xi_old,
// compress, re-mine the compressed database at a relaxed xi_new with each
// adapted algorithm, and compare with direct mining. Also pins the paper's
// worked Example 3.

#include <gtest/gtest.h>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "fpm/miner.h"
#include "tests/test_util.h"

namespace gogreen::core {
namespace {

using fpm::ItemId;
using fpm::PatternSet;
using fpm::TransactionDb;
using testutil::MinePatterns;
using testutil::PaperExampleDb;
using testutil::RandomDb;
using testutil::RandomDenseDb;

constexpr RecycleAlgo kAllRecycleAlgos[] = {
    RecycleAlgo::kNaive, RecycleAlgo::kHMine, RecycleAlgo::kFpGrowth,
    RecycleAlgo::kTreeProjection};

PatternSet MustMineDirect(const TransactionDb& db, uint64_t minsup) {
  auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
  auto result = MinePatterns(*miner, db, minsup);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

CompressedDb MustCompress(const TransactionDb& db, const PatternSet& fp,
                          CompressionStrategy strategy) {
  auto result = CompressDatabase(db, fp, {strategy, MatcherKind::kAuto});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

PatternSet MustMineCompressed(RecycleAlgo algo, const CompressedDb& cdb,
                              uint64_t minsup) {
  auto miner = CreateCompressedMiner(algo);
  auto result = MinePatterns(*miner, cdb, minsup);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(RecyclingTest, PaperExample3EndToEnd) {
  // xi_old = 3 -> compress with MCP -> mine at xi_new = 2 (Example 3).
  constexpr ItemId a = 0, c = 2, d = 3, e = 4, f = 5, g = 6;
  const TransactionDb db = PaperExampleDb();
  const PatternSet fp_old = MustMineDirect(db, 3);
  const CompressedDb cdb = MustCompress(db, fp_old, CompressionStrategy::kMcp);

  PatternSet expected = MustMineDirect(db, 2);
  for (RecycleAlgo algo : kAllRecycleAlgos) {
    SCOPED_TRACE(RecycleAlgoName(algo));
    PatternSet got = MustMineCompressed(algo, cdb, 2);
    EXPECT_TRUE(PatternSet::Equal(&expected, &got))
        << "missing: " << PatternSet::Difference(&expected, &got).size()
        << " extra: " << PatternSet::Difference(&got, &expected).size();
    // Spot-check the patterns the paper enumerates in Example 3.
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c, d, f, g}), 2u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{d, f}), 2u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c, e, f, g}), 2u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{a, c, e}), 2u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{a, e}), 3u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{f, g}), 3u);
  }
}

struct RecyclingParam {
  uint64_t seed;
  bool dense;
  uint64_t xi_old;
  uint64_t xi_new;
  CompressionStrategy strategy;
};

class RecyclingEquivalenceTest
    : public testing::TestWithParam<RecyclingParam> {};

TEST_P(RecyclingEquivalenceTest, CompressedMiningEqualsDirectMining) {
  const RecyclingParam& p = GetParam();
  const TransactionDb db = p.dense ? RandomDenseDb(p.seed, 250, 10, 3)
                                   : RandomDb(p.seed, 400, 60, 7.0);
  const PatternSet fp_old = MustMineDirect(db, p.xi_old);
  const CompressedDb cdb = MustCompress(db, fp_old, p.strategy);

  PatternSet expected = MustMineDirect(db, p.xi_new);
  for (RecycleAlgo algo : kAllRecycleAlgos) {
    SCOPED_TRACE(RecycleAlgoName(algo));
    PatternSet got = MustMineCompressed(algo, cdb, p.xi_new);
    EXPECT_TRUE(PatternSet::Equal(&expected, &got))
        << "missing: " << PatternSet::Difference(&expected, &got).size()
        << " extra: " << PatternSet::Difference(&got, &expected).size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SparseMcp, RecyclingEquivalenceTest,
    testing::Values(
        RecyclingParam{101, false, 40, 15, CompressionStrategy::kMcp},
        RecyclingParam{102, false, 60, 20, CompressionStrategy::kMcp},
        RecyclingParam{103, false, 30, 8, CompressionStrategy::kMcp},
        RecyclingParam{104, false, 100, 5, CompressionStrategy::kMcp}));

INSTANTIATE_TEST_SUITE_P(
    SparseMlp, RecyclingEquivalenceTest,
    testing::Values(
        RecyclingParam{101, false, 40, 15, CompressionStrategy::kMlp},
        RecyclingParam{105, false, 50, 12, CompressionStrategy::kMlp}));

INSTANTIATE_TEST_SUITE_P(
    DenseMcp, RecyclingEquivalenceTest,
    testing::Values(
        RecyclingParam{201, true, 200, 120, CompressionStrategy::kMcp},
        RecyclingParam{202, true, 180, 100, CompressionStrategy::kMcp}));

INSTANTIATE_TEST_SUITE_P(
    DenseMlp, RecyclingEquivalenceTest,
    testing::Values(
        RecyclingParam{201, true, 200, 120, CompressionStrategy::kMlp}));

TEST(RecyclingTest, SameThresholdReproducesRecycledSet) {
  // xi_new == xi_old: mining the compressed database must reproduce exactly
  // the recycled pattern set.
  const TransactionDb db = RandomDb(7, 300, 40, 6.0);
  PatternSet fp_old = MustMineDirect(db, 30);
  const CompressedDb cdb = MustCompress(db, fp_old, CompressionStrategy::kMcp);
  for (RecycleAlgo algo : kAllRecycleAlgos) {
    SCOPED_TRACE(RecycleAlgoName(algo));
    PatternSet got = MustMineCompressed(algo, cdb, 30);
    EXPECT_TRUE(PatternSet::Equal(&fp_old, &got));
  }
}

TEST(RecyclingTest, UncompressedCdbStillMinesCorrectly) {
  // A CDB produced with an empty pattern set is just the original database;
  // the compressed miners must behave like plain miners on it, and
  // Recycle-HM must do H-Mine's work exactly (the dense input takes
  // H-Mine's dense switch below the root).
  const std::pair<TransactionDb, uint64_t> inputs[] = {
      {RandomDb(9, 200, 30, 5.0), 10}, {RandomDenseDb(91, 2000, 12, 3), 600}};
  for (const auto& [db, minsup] : inputs) {
    SCOPED_TRACE(minsup);
    const CompressedDb cdb =
        MustCompress(db, PatternSet(), CompressionStrategy::kMcp);
    const fpm::MineRequest request = fpm::MineRequest::At(minsup);
    auto hmine = fpm::CreateMiner(fpm::MinerKind::kHMine)->Mine(db, request);
    ASSERT_TRUE(hmine.ok());
    for (RecycleAlgo algo : kAllRecycleAlgos) {
      SCOPED_TRACE(RecycleAlgoName(algo));
      auto got = CreateCompressedMiner(algo)->Mine(cdb, request);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(PatternSet::Equal(&hmine->patterns, &got->patterns));
      if (algo != RecycleAlgo::kHMine) continue;
      EXPECT_EQ(got->stats.items_scanned, hmine->stats.items_scanned);
      EXPECT_EQ(got->stats.projections_built,
                hmine->stats.projections_built);
    }
  }
}

TEST(RecyclingTest, MinSupportZeroRejected) {
  const CompressedDb cdb = MustCompress(PaperExampleDb(), PatternSet(),
                                        CompressionStrategy::kMcp);
  for (RecycleAlgo algo : kAllRecycleAlgos) {
    auto miner = CreateCompressedMiner(algo);
    auto result = MinePatterns(*miner, cdb, 0);
    EXPECT_FALSE(result.ok());
  }
}

TEST(RecyclingTest, EmptyCdbYieldsEmptySet) {
  CompressedDb cdb;
  for (RecycleAlgo algo : kAllRecycleAlgos) {
    SCOPED_TRACE(RecycleAlgoName(algo));
    const PatternSet got = MustMineCompressed(algo, cdb, 1);
    EXPECT_TRUE(got.empty());
  }
}

TEST(RecyclingTest, StatsShowGroupCountingSavings) {
  // Recycle-HM over the grouped database must touch fewer item occurrences
  // than over the same database without groups (no seed patterns) at the
  // same threshold — that is the entire point of recycling (Section 3.1).
  const TransactionDb db = RandomDenseDb(55, 400, 10, 3);
  const PatternSet fp_old = MustMineDirect(db, 320);
  const CompressedDb cdb = MustCompress(db, fp_old, CompressionStrategy::kMcp);
  const CompressedDb ungrouped =
      MustCompress(db, PatternSet(), CompressionStrategy::kMcp);

  const fpm::MineRequest request = fpm::MineRequest::At(240);
  auto direct =
      CreateCompressedMiner(RecycleAlgo::kHMine)->Mine(ungrouped, request);
  ASSERT_TRUE(direct.ok());
  auto recycled =
      CreateCompressedMiner(RecycleAlgo::kHMine)->Mine(cdb, request);
  ASSERT_TRUE(recycled.ok());
  EXPECT_LT(recycled->stats.items_scanned, direct->stats.items_scanned);
}

}  // namespace
}  // namespace gogreen::core
