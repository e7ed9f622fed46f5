// Tests for the compression algorithm (Figure 1), reproducing the paper's
// Table 2 and checking losslessness + matcher equivalence.

#include "core/compressor.h"

#include <gtest/gtest.h>

#include "core/utility.h"
#include "fpm/miner.h"
#include "tests/test_util.h"

namespace gogreen::core {
namespace {

using fpm::ItemId;
using fpm::ItemSpan;
using fpm::PatternSet;
using fpm::TransactionDb;
using testutil::MinePatterns;
using testutil::PaperExampleDb;
using testutil::RandomDb;
using testutil::RandomDenseDb;

/// FP at xi_old = 3 for the paper's Table 1 database (complete set).
PatternSet PaperFp() {
  auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
  auto result = MinePatterns(*miner, PaperExampleDb(), 3);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

CompressedDb MustCompress(const TransactionDb& db, const PatternSet& fp,
                          CompressorOptions options,
                          CompressionStats* stats = nullptr) {
  auto result = CompressDatabase(db, fp, options, stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::vector<ItemId> ToVec(ItemSpan s) { return {s.begin(), s.end()}; }

TEST(CompressorTest, ReproducesTable2WithMcp) {
  constexpr ItemId a = 0, b = 1, c = 2, d = 3, e = 4, f = 5, g = 6, h = 7,
                   i = 8;
  const TransactionDb db = PaperExampleDb();
  CompressionStats stats;
  const CompressedDb cdb = MustCompress(
      db, PaperFp(), {CompressionStrategy::kMcp, MatcherKind::kLinear},
      &stats);

  // Two groups: fgc (tuples 100,200,300) and ae (tuples 400,500); nothing
  // ungrouped.
  ASSERT_EQ(cdb.NumGroups(), 2u);
  EXPECT_EQ(cdb.NumTuples(), 5u);
  EXPECT_EQ(ToVec(cdb.PatternOf(0)), (std::vector<ItemId>{c, f, g}));
  EXPECT_EQ(cdb.Group(0).count, 3u);
  EXPECT_EQ(ToVec(cdb.PatternOf(1)), (std::vector<ItemId>{a, e}));
  EXPECT_EQ(cdb.Group(1).count, 2u);

  // Outlying items per Table 2.
  EXPECT_EQ(cdb.MemberTid(0), 0u);  // Tuple 100.
  EXPECT_EQ(ToVec(cdb.Outlying(0)), (std::vector<ItemId>{a, d, e}));
  EXPECT_EQ(ToVec(cdb.Outlying(1)), (std::vector<ItemId>{b, d}));
  EXPECT_EQ(ToVec(cdb.Outlying(2)), (std::vector<ItemId>{e}));
  EXPECT_EQ(ToVec(cdb.Outlying(3)), (std::vector<ItemId>{c, i}));
  EXPECT_EQ(ToVec(cdb.Outlying(4)), (std::vector<ItemId>{h}));

  EXPECT_EQ(stats.covered_tuples, 5u);
  EXPECT_EQ(stats.uncovered_tuples, 0u);
  EXPECT_EQ(stats.groups, 2u);
  // Sc = (3 + 2) pattern items + (3+2+1+2+1) outlying = 14; So = 22.
  EXPECT_EQ(stats.stored_items, 14u);
  EXPECT_EQ(stats.original_items, 22u);
  EXPECT_NEAR(stats.Ratio(), 14.0 / 22.0, 1e-12);
}

TEST(CompressorTest, MlpPicksSameCoverOnPaperExample) {
  // fgc is both the max-utility (MCP) and the longest (MLP) pattern here.
  const TransactionDb db = PaperExampleDb();
  const CompressedDb cdb = MustCompress(
      db, PaperFp(), {CompressionStrategy::kMlp, MatcherKind::kLinear});
  ASSERT_EQ(cdb.NumGroups(), 2u);
  EXPECT_EQ(cdb.PatternOf(0).size(), 3u);
  EXPECT_EQ(cdb.PatternOf(1).size(), 2u);
}

TEST(CompressorTest, LosslessOnPaperExample) {
  const TransactionDb db = PaperExampleDb();
  const CompressedDb cdb = MustCompress(
      db, PaperFp(), {CompressionStrategy::kMcp, MatcherKind::kLinear});
  const TransactionDb round = cdb.Decompress();
  ASSERT_EQ(round.NumTransactions(), db.NumTransactions());
  for (uint64_t m = 0; m < cdb.NumTuples(); ++m) {
    const fpm::Tid original = cdb.MemberTid(m);
    EXPECT_EQ(ToVec(round.Transaction(static_cast<fpm::Tid>(m))),
              ToVec(db.Transaction(original)));
  }
}

TEST(CompressorTest, UnmatchedTuplesGoToTrailingUngroupedGroup) {
  TransactionDb db;
  db.AddTransaction({1, 2, 3});
  db.AddTransaction({7, 8});  // Matches nothing.
  PatternSet fp;
  fp.Add({1, 2}, 1);
  CompressionStats stats;
  const CompressedDb cdb = MustCompress(
      db, fp, {CompressionStrategy::kMcp, MatcherKind::kLinear}, &stats);
  ASSERT_EQ(cdb.NumGroups(), 2u);
  EXPECT_TRUE(cdb.PatternOf(1).empty());
  EXPECT_EQ(ToVec(cdb.Outlying(1)), (std::vector<ItemId>{7, 8}));
  EXPECT_EQ(stats.uncovered_tuples, 1u);
  EXPECT_EQ(stats.groups, 1u);
}

TEST(CompressorTest, EmptyPatternSetLeavesEverythingUngrouped) {
  const TransactionDb db = PaperExampleDb();
  CompressionStats stats;
  const CompressedDb cdb = MustCompress(
      db, PatternSet(), {CompressionStrategy::kMcp, MatcherKind::kLinear},
      &stats);
  ASSERT_EQ(cdb.NumGroups(), 1u);
  EXPECT_TRUE(cdb.PatternOf(0).empty());
  EXPECT_EQ(stats.covered_tuples, 0u);
  EXPECT_EQ(stats.uncovered_tuples, 5u);
  EXPECT_DOUBLE_EQ(stats.Ratio(), 1.0);  // No compression.
}

TEST(CompressorTest, PatternWithNoItemsRejected) {
  PatternSet fp;
  fp.Add(std::vector<ItemId>{}, 3);
  auto result = CompressDatabase(PaperExampleDb(), fp,
                                 {CompressionStrategy::kMcp,
                                  MatcherKind::kLinear});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompressorTest, MatchersProduceIdenticalAssignments) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const TransactionDb db = RandomDb(seed, 400, 60, 7.0);
    auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
    auto fp = MinePatterns(*miner, db, 20);
    ASSERT_TRUE(fp.ok());
    for (CompressionStrategy strategy :
         {CompressionStrategy::kMcp, CompressionStrategy::kMlp}) {
      const CompressedDb lin = MustCompress(
          db, fp.value(), {strategy, MatcherKind::kLinear});
      const CompressedDb inv = MustCompress(
          db, fp.value(), {strategy, MatcherKind::kInvertedIndex});
      ASSERT_EQ(lin.NumGroups(), inv.NumGroups());
      ASSERT_EQ(lin.NumTuples(), inv.NumTuples());
      for (GroupId g = 0; g < lin.NumGroups(); ++g) {
        EXPECT_EQ(ToVec(lin.PatternOf(g)), ToVec(inv.PatternOf(g)));
        EXPECT_EQ(lin.Group(g).count, inv.Group(g).count);
      }
      for (uint64_t m = 0; m < lin.NumTuples(); ++m) {
        EXPECT_EQ(lin.MemberTid(m), inv.MemberTid(m));
        EXPECT_EQ(ToVec(lin.Outlying(m)), ToVec(inv.Outlying(m)));
      }
    }
  }
}

TEST(CompressorTest, LosslessPropertyOnRandomDbs) {
  for (uint64_t seed = 10; seed < 16; ++seed) {
    const bool dense = seed % 2 == 0;
    const TransactionDb db =
        dense ? RandomDenseDb(seed, 150, 10, 3) : RandomDb(seed, 300, 50, 6.0);
    auto miner = fpm::CreateMiner(fpm::MinerKind::kEclat);
    auto fp = MinePatterns(*miner, db, dense ? 70 : 15);
    ASSERT_TRUE(fp.ok());
    for (CompressionStrategy strategy :
         {CompressionStrategy::kMcp, CompressionStrategy::kMlp}) {
      const CompressedDb cdb =
          MustCompress(db, fp.value(), {strategy, MatcherKind::kAuto});
      ASSERT_EQ(cdb.NumTuples(), db.NumTransactions());
      const TransactionDb round = cdb.Decompress();
      for (uint64_t m = 0; m < cdb.NumTuples(); ++m) {
        EXPECT_EQ(ToVec(round.Transaction(static_cast<fpm::Tid>(m))),
                  ToVec(db.Transaction(cdb.MemberTid(m))));
      }
    }
  }
}

TEST(CompressorTest, MlpCompressesAtLeastAsWellAsMcpUsually) {
  // Section 5.1: MLP targets storage, so its ratio is typically <= MCP's.
  // This is a tendency, not a theorem; assert it on a seed where it holds
  // to pin the behaviour.
  const TransactionDb db = RandomDb(42, 800, 40, 8.0);
  auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
  auto fp = MinePatterns(*miner, db, 40);
  ASSERT_TRUE(fp.ok());
  CompressionStats mcp_stats;
  CompressionStats mlp_stats;
  MustCompress(db, fp.value(), {CompressionStrategy::kMcp,
                                MatcherKind::kLinear}, &mcp_stats);
  MustCompress(db, fp.value(), {CompressionStrategy::kMlp,
                                MatcherKind::kLinear}, &mlp_stats);
  EXPECT_LE(mlp_stats.Ratio(), mcp_stats.Ratio() + 1e-9);
}

TEST(CompressorTest, GroupOrderFollowsUtilityRanking) {
  // Higher-utility groups must appear first: the compressor materializes
  // groups in ranking order.
  const TransactionDb db = PaperExampleDb();
  const CompressedDb cdb = MustCompress(
      db, PaperFp(), {CompressionStrategy::kMcp, MatcherKind::kLinear});
  // fgc (utility 21) before ae (utility 9).
  EXPECT_EQ(cdb.PatternOf(0).size(), 3u);
  EXPECT_EQ(cdb.PatternOf(1).size(), 2u);
}

}  // namespace
}  // namespace gogreen::core
