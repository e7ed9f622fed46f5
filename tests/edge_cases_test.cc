// Edge-case coverage across the library: degenerate databases, extreme
// thresholds, identical transactions (maximal group sharing), and the
// exposed partition/row-mining entry points.

#include <gtest/gtest.h>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "core/seed_selection.h"
#include "fpm/hmine.h"
#include "fpm/miner.h"
#include "serve/mining_service.h"
#include "tests/test_util.h"

namespace gogreen {
namespace {

using core::CompressDatabase;
using core::CompressionStrategy;
using core::CreateCompressedMiner;
using core::MatcherKind;
using core::RecycleAlgo;
using fpm::FList;
using fpm::ItemId;
using fpm::PatternSet;
using fpm::Rank;
using fpm::TransactionDb;
using testutil::MinePatterns;

constexpr RecycleAlgo kAllRecycleAlgos[] = {
    RecycleAlgo::kNaive, RecycleAlgo::kHMine, RecycleAlgo::kFpGrowth,
    RecycleAlgo::kTreeProjection};

constexpr fpm::MinerKind kAllMiners[] = {
    fpm::MinerKind::kApriori, fpm::MinerKind::kEclat, fpm::MinerKind::kHMine,
    fpm::MinerKind::kFpGrowth, fpm::MinerKind::kTreeProjection};

TEST(EdgeCasesTest, AllIdenticalTransactions) {
  // One giant group; every miner must enumerate the full subset lattice.
  TransactionDb db;
  for (int i = 0; i < 50; ++i) db.AddTransaction({2, 4, 6, 8});
  for (fpm::MinerKind kind : kAllMiners) {
    SCOPED_TRACE(fpm::MinerKindName(kind));
    auto result = MinePatterns(*fpm::CreateMiner(kind), db, 50);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 15u);  // 2^4 - 1.
    for (const auto& p : *result) EXPECT_EQ(p.support, 50u);
  }
}

TEST(EdgeCasesTest, IdenticalTransactionsRecycledIsSingleGroup) {
  TransactionDb db;
  for (int i = 0; i < 50; ++i) db.AddTransaction({2, 4, 6, 8});
  auto fp = MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kEclat), db, 50);
  ASSERT_TRUE(fp.ok());
  auto cdb = CompressDatabase(db, *fp,
                              {CompressionStrategy::kMcp, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());
  EXPECT_EQ(cdb->NumGroups(), 1u);
  EXPECT_EQ(cdb->StoredItems(), 4u);  // The whole DB compresses to 4 items.

  for (RecycleAlgo algo : kAllRecycleAlgos) {
    SCOPED_TRACE(RecycleAlgoName(algo));
    auto result =
        CreateCompressedMiner(algo)->Mine(*cdb, fpm::MineRequest::At(10));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->patterns.size(), 15u);
    // The single-group shortcut must avoid building any projection.
    EXPECT_EQ(result->stats.projections_built, 0u);
  }
}

TEST(EdgeCasesTest, SingletonTransactionsOnly) {
  TransactionDb db;
  for (ItemId it = 0; it < 10; ++it) {
    db.AddTransaction({it});
    db.AddTransaction({it});
  }
  for (fpm::MinerKind kind : kAllMiners) {
    SCOPED_TRACE(fpm::MinerKindName(kind));
    auto result = MinePatterns(*fpm::CreateMiner(kind), db, 2);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 10u);
  }
}

TEST(EdgeCasesTest, MinSupportOneEnumeratesEverything) {
  TransactionDb db = testutil::MakeDb({{1, 2}, {3}});
  for (fpm::MinerKind kind : kAllMiners) {
    SCOPED_TRACE(fpm::MinerKindName(kind));
    auto result = MinePatterns(*fpm::CreateMiner(kind), db, 1);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 4u);  // {1},{2},{1,2},{3}.
  }
}

TEST(EdgeCasesTest, LargeItemIdsHandled) {
  TransactionDb db;
  db.AddTransaction({1000000, 2000000});
  db.AddTransaction({1000000, 2000000});
  auto result = MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kHMine), db, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
  EXPECT_EQ(result->SupportOf(std::vector<ItemId>{1000000, 2000000}), 2u);
}

TEST(EdgeCasesTest, RecyclingWithPatternsMissingFromDb) {
  // Seeding compression with patterns that never match (e.g. from another
  // table) must degrade gracefully to an uncovered database.
  TransactionDb db = testutil::MakeDb({{1, 2}, {1, 2}, {3}});
  PatternSet foreign;
  foreign.Add({7, 8}, 5);
  auto cdb = CompressDatabase(db, foreign,
                              {CompressionStrategy::kMcp, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());
  for (RecycleAlgo algo : kAllRecycleAlgos) {
    SCOPED_TRACE(RecycleAlgoName(algo));
    auto result = MinePatterns(*CreateCompressedMiner(algo), *cdb, 2);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->SupportOf(std::vector<ItemId>{1, 2}), 2u);
  }
}

TEST(EdgeCasesTest, GroupWithEntirelyInfrequentOutlyingParts) {
  // Members whose outlying items all fall below xi_new exercise the
  // empty_count bookkeeping.
  TransactionDb db;
  for (int i = 0; i < 6; ++i) {
    db.AddTransaction({1, 2, static_cast<ItemId>(100 + i)});  // Unique tail.
  }
  PatternSet fp;
  fp.Add({1, 2}, 6);
  auto cdb = CompressDatabase(db, fp,
                              {CompressionStrategy::kMcp, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());
  for (RecycleAlgo algo : kAllRecycleAlgos) {
    SCOPED_TRACE(RecycleAlgoName(algo));
    auto result = MinePatterns(*CreateCompressedMiner(algo), *cdb, 2);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 3u);  // {1},{2},{1,2} at support 6.
    EXPECT_EQ(result->SupportOf(std::vector<ItemId>{1, 2}), 6u);
  }
}

TEST(EdgeCasesTest, MineRankedRowsPrefixHandling) {
  // The exposed H-Mine core must prepend the prefix to every emission.
  TransactionDb db = testutil::MakeDb({{1, 2, 3}, {1, 2, 3}, {2, 3}});
  const FList flist = FList::Build(db, 2);
  std::vector<std::vector<Rank>> rows;
  for (fpm::Tid t = 0; t < db.NumTransactions(); ++t) {
    rows.push_back(flist.EncodeTransaction(db.Transaction(t)));
  }
  PatternSet out;
  fpm::MiningStats stats;
  const Rank prefix_rank = flist.rank(1);
  ASSERT_NE(prefix_rank, fpm::kNoRank);
  fpm::MineRankedRowsHM(rows, flist, 2, {prefix_rank}, &out, &stats);
  // Every emitted pattern contains item 1.
  for (const auto& p : out) {
    EXPECT_TRUE(std::find(p.items.begin(), p.items.end(), 1u) !=
                p.items.end())
        << p.ToString();
  }
}

TEST(EdgeCasesTest, DeepRelaxationChain) {
  // Mine at a ladder of thresholds, recycling each round into the next;
  // every rung must stay exact.
  const TransactionDb db = testutil::RandomDb(881, 500, 50, 7.0);
  serve::MiningService service(db, "ladder");
  for (uint64_t sup : {120u, 60u, 30u, 15u, 8u, 4u}) {
    SCOPED_TRACE(sup);
    serve::ServeStats stats;
    auto got = service.Mine(fpm::MineRequest::At(sup), &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(stats.route,
              sup == 120 ? core::SeedRoute::kNone : core::SeedRoute::kRecycle);
    auto expected =
        MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kFpGrowth), db, sup);
    ASSERT_TRUE(expected.ok());
    PatternSet a = std::move(expected).value();
    EXPECT_TRUE(PatternSet::Equal(&a, &got->patterns));
  }
}

TEST(EdgeCasesTest, CompressionOfEmptyDatabase) {
  TransactionDb db;
  PatternSet fp;
  fp.Add({1}, 1);
  auto cdb = CompressDatabase(db, fp,
                              {CompressionStrategy::kMcp, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());
  EXPECT_EQ(cdb->NumTuples(), 0u);
  for (RecycleAlgo algo : kAllRecycleAlgos) {
    auto result = MinePatterns(*CreateCompressedMiner(algo), *cdb, 1);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->empty());
  }
}

}  // namespace
}  // namespace gogreen
