// Tests pinning the paper's qualitative claims in work-count terms (time
// is flaky in CI; items_scanned is deterministic):
//   - recycling scans fewer item occurrences than mining without groups
//     when the compression covers the data well;
//   - the single-group shortcut (Lemma 3.1) suppresses whole projection
//     subtrees;
// "Without groups" is Recycle-HM over the ungrouped image of the same
// database (compressed with no seed patterns): the same miner, so the
// comparison isolates what the groups save.
//   - MCP's utility ranking prefers the patterns whose subtree was most
//     expensive to visit.

#include <gtest/gtest.h>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "core/utility.h"
#include "fpm/miner.h"
#include "tests/test_util.h"

namespace gogreen::core {
namespace {

using fpm::PatternSet;
using fpm::TransactionDb;
using testutil::MinePatterns;
using testutil::RandomDenseDb;

/// The database in compressed form with no groups: every tuple stands alone.
CompressedDb Ungrouped(const TransactionDb& db) {
  auto cdb = CompressDatabase(db, PatternSet(),
                              {CompressionStrategy::kMcp, MatcherKind::kAuto});
  EXPECT_TRUE(cdb.ok()) << cdb.status().ToString();
  return std::move(cdb).value();
}

TEST(PaperInvariantsTest, RecyclingScansFewerItemsOnDenseData) {
  const TransactionDb db = RandomDenseDb(91, 600, 12, 3);
  auto fp_miner = fpm::CreateMiner(fpm::MinerKind::kHMine);
  auto fp = MinePatterns(*fp_miner, db, 380);
  ASSERT_TRUE(fp.ok());
  ASSERT_GT(fp->size(), 3u);
  auto cdb = CompressDatabase(db, *fp,
                              {CompressionStrategy::kMcp, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());

  const fpm::MineRequest request = fpm::MineRequest::At(300);
  auto direct =
      CreateCompressedMiner(RecycleAlgo::kHMine)->Mine(Ungrouped(db), request);
  ASSERT_TRUE(direct.ok());
  for (RecycleAlgo algo : {RecycleAlgo::kNaive, RecycleAlgo::kHMine,
                           RecycleAlgo::kFpGrowth}) {
    SCOPED_TRACE(RecycleAlgoName(algo));
    auto rec = CreateCompressedMiner(algo);
    auto recycled = rec->Mine(*cdb, request);
    ASSERT_TRUE(recycled.ok());
    EXPECT_LT(recycled->stats.items_scanned, direct->stats.items_scanned);
    auto r2 = rec->Mine(*cdb, request);
    ASSERT_TRUE(r2.ok());
  }
}

TEST(PaperInvariantsTest, SingleGroupShortcutCutsProjections) {
  // A database that is one big group: every projected database below the
  // top level is single-group, so Recycle-HM should build far fewer
  // projected databases than it does without the group.
  TransactionDb db;
  for (int i = 0; i < 100; ++i) db.AddTransaction({1, 2, 3, 4, 5, 6});
  for (int i = 0; i < 20; ++i) db.AddTransaction({1, 7});

  auto fp_miner = fpm::CreateMiner(fpm::MinerKind::kHMine);
  auto fp = MinePatterns(*fp_miner, db, 100);
  ASSERT_TRUE(fp.ok());
  auto cdb = CompressDatabase(db, *fp,
                              {CompressionStrategy::kMcp, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());

  const fpm::MineRequest request = fpm::MineRequest::At(20);
  auto direct =
      CreateCompressedMiner(RecycleAlgo::kHMine)->Mine(Ungrouped(db), request);
  ASSERT_TRUE(direct.ok());

  auto rec = CreateCompressedMiner(RecycleAlgo::kHMine)->Mine(*cdb, request);
  ASSERT_TRUE(rec.ok());

  ASSERT_TRUE(PatternSet::Equal(&direct->patterns, &rec->patterns));
  EXPECT_LT(rec->stats.projections_built,
            direct->stats.projections_built / 4);
  EXPECT_LT(rec->stats.items_scanned, direct->stats.items_scanned / 4);
}

TEST(PaperInvariantsTest, McpRanksExpensiveSubtreesFirst) {
  // fgc:3 discovered at xi_old cost ~ (2^3-1)*3 = 21 beats e:4 (cost 4)
  // even though e has higher support; MLP agrees here via length. But a
  // short very frequent pattern can beat a longer rarer one under MCP only
  // if its cost is higher: {9,10}:100 (cost 300) > {1,2,3}:20 (cost 140).
  PatternSet fp;
  fp.Add({9, 10}, 100);
  fp.Add({1, 2, 3}, 20);
  const auto mcp = RankPatternsByUtility(fp, CompressionStrategy::kMcp, 200);
  EXPECT_EQ(fp[mcp[0]].items, (std::vector<fpm::ItemId>{9, 10}));
  const auto mlp = RankPatternsByUtility(fp, CompressionStrategy::kMlp, 200);
  EXPECT_EQ(fp[mlp[0]].items, (std::vector<fpm::ItemId>{1, 2, 3}));
}

TEST(PaperInvariantsTest, CompressionIsThresholdIndependent) {
  // The compressed image depends only on DB and FP — mining it at any
  // xi_new below xi_old is exact (checked across three thresholds on one
  // image).
  const TransactionDb db = testutil::RandomDb(92, 400, 40, 6.0);
  auto fp_miner = fpm::CreateMiner(fpm::MinerKind::kEclat);
  auto fp = MinePatterns(*fp_miner, db, 60);
  ASSERT_TRUE(fp.ok());
  auto cdb = CompressDatabase(db, *fp,
                              {CompressionStrategy::kMcp, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());
  for (uint64_t sup : {40u, 20u, 8u}) {
    SCOPED_TRACE(sup);
    auto direct =
        MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kFpGrowth), db, sup);
    auto rec =
        MinePatterns(*CreateCompressedMiner(RecycleAlgo::kHMine), *cdb, sup);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(rec.ok());
    PatternSet a = std::move(direct).value();
    PatternSet b = std::move(rec).value();
    EXPECT_TRUE(PatternSet::Equal(&a, &b));
  }
}

}  // namespace
}  // namespace gogreen::core
