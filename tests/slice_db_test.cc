// Tests for the slice representation of compressed databases: encoding,
// projection semantics (Definition 3.2 lifted to slices), the group-counter
// trick, and Lemma 3.1 detection.

#include "core/slice_db.h"

#include <gtest/gtest.h>

#include "core/compressor.h"
#include "fpm/miner.h"
#include "tests/test_util.h"

namespace gogreen::core {
namespace {

using fpm::FList;
using fpm::ItemId;
using fpm::Rank;
using fpm::TransactionDb;
using testutil::MinePatterns;
using testutil::PaperExampleDb;

/// Table 2 CDB built through the real compressor.
CompressedDb PaperCdb() {
  const TransactionDb db = PaperExampleDb();
  auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
  auto fp = MinePatterns(*miner, db, 3);
  EXPECT_TRUE(fp.ok());
  auto cdb = CompressDatabase(db, fp.value(),
                              {CompressionStrategy::kMcp,
                               MatcherKind::kLinear});
  EXPECT_TRUE(cdb.ok());
  return std::move(cdb).value();
}

TEST(SliceDbTest, BuildMatchesTable2FourthColumn) {
  // With xi_new = 2, Table 2's "(ordered) frequent outlying items" column:
  // group fgc: members d,a,e / d / e ; group ae: c / (empty).
  const CompressedDb cdb = PaperCdb();
  const FList flist = FList::FromCounts(cdb.CountItemSupports(9), 2);
  const SliceDb sdb = SliceDb::Build(cdb, flist);
  ASSERT_EQ(sdb.slices.size(), 2u);

  const Slice& fgc = sdb.slices[0];
  EXPECT_EQ(fgc.pattern.size(), 3u);
  ASSERT_EQ(fgc.outs.size(), 3u);
  EXPECT_EQ(fgc.outs[0].size(), 3u);  // d,a,e (b,h,i infrequent).
  EXPECT_EQ(fgc.outs[1].size(), 1u);  // d
  EXPECT_EQ(fgc.outs[2].size(), 1u);  // e
  EXPECT_EQ(fgc.empty_count, 0u);

  const Slice& ae = sdb.slices[1];
  EXPECT_EQ(ae.pattern.size(), 2u);
  ASSERT_EQ(ae.outs.size(), 1u);  // c (i infrequent).
  EXPECT_EQ(ae.outs[0].size(), 1u);
  EXPECT_EQ(ae.empty_count, 1u);  // Tuple 500's outlying {h} is infrequent.
}

TEST(SliceDbTest, StoredItemsCountsPatternOncePerSlice) {
  const CompressedDb cdb = PaperCdb();
  const FList flist = FList::FromCounts(cdb.CountItemSupports(9), 2);
  const SliceDb sdb = SliceDb::Build(cdb, flist);
  // Patterns 3+2, outs 3+1+1+1 = 11 encoded items.
  EXPECT_EQ(sdb.StoredItems(), 11u);
}

TEST(SliceDbTest, CountFrequentUsesGroupWeights) {
  const CompressedDb cdb = PaperCdb();
  const FList flist = FList::FromCounts(cdb.CountItemSupports(9), 2);
  const SliceDb sdb = SliceDb::Build(cdb, flist);

  fpm::PatternSet sink;
  fpm::MiningStats stats;
  SliceMiningContext ctx(flist, 2, &sink, &stats);
  std::vector<uint64_t> counts;
  const std::vector<Rank> frequent = ctx.CountFrequent(sdb.slices, &counts);
  // All six F-list items are frequent at 2: d,f,g,a,e,c (ranks 0..5).
  ASSERT_EQ(frequent.size(), 6u);
  for (size_t i = 0; i < frequent.size(); ++i) {
    EXPECT_EQ(counts[i], flist.support(frequent[i]));
  }
  // Group-counting: pattern items are scanned once per slice, not per tuple.
  // Slices hold 11 encoded items total, so the scan touches exactly 11.
  EXPECT_EQ(stats.items_scanned, 11u);
}

TEST(SliceDbTest, ProjectOnPatternItemKeepsAllMembers) {
  constexpr ItemId g = 6;
  const CompressedDb cdb = PaperCdb();
  const FList flist = FList::FromCounts(cdb.CountItemSupports(9), 2);
  const SliceDb sdb = SliceDb::Build(cdb, flist);

  // g-projected database: group fgc's slice keeps all 3 members; items
  // after g in the F-list survive (e and c).
  const Rank rg = flist.rank(g);
  ASSERT_NE(rg, fpm::kNoRank);
  const std::vector<Slice> proj = ProjectSlices(sdb.slices, rg);
  // Group ae does not contain g anywhere -> dropped. fgc -> c remains in
  // pattern (c ranks after g).
  ASSERT_EQ(proj.size(), 1u);
  EXPECT_EQ(proj[0].count(), 3u);
  EXPECT_EQ(proj[0].pattern.size(), 1u);
  EXPECT_EQ(flist.item(proj[0].pattern[0]), 2u);  // c
}

TEST(SliceDbTest, ProjectOnOutlyingItemSelectsMembers) {
  constexpr ItemId d = 3;
  const CompressedDb cdb = PaperCdb();
  const FList flist = FList::FromCounts(cdb.CountItemSupports(9), 2);
  const SliceDb sdb = SliceDb::Build(cdb, flist);

  // d-projected database (Example 3 step 1): members 100 and 200 of group
  // fgc; all of f,g,c (+ a,e for tuple 100) rank after d.
  const Rank rd = flist.rank(d);
  ASSERT_EQ(rd, 0u);  // d is the rarest frequent item.
  const std::vector<Slice> proj = ProjectSlices(sdb.slices, rd);
  ASSERT_EQ(proj.size(), 1u);
  EXPECT_EQ(proj[0].count(), 2u);
  EXPECT_EQ(proj[0].pattern.size(), 3u);  // f,g,c
  // Tuple 100 keeps outlying a,e; tuple 200's outlying d is consumed.
  EXPECT_EQ(proj[0].outs.size(), 1u);
  EXPECT_EQ(proj[0].outs[0].size(), 2u);
  EXPECT_EQ(proj[0].empty_count, 1u);
}

TEST(SliceDbTest, SingleGroupLemmaDetected) {
  // d-projected database of Example 3: all frequent items (f,g,c) live in
  // the single fgc slice -> Lemma 3.1 applies and yields all 7 combinations
  // with support 2.
  const CompressedDb cdb = PaperCdb();
  const FList flist = FList::FromCounts(cdb.CountItemSupports(9), 2);
  const SliceDb sdb = SliceDb::Build(cdb, flist);
  const std::vector<Slice> proj = ProjectSlices(sdb.slices, 0);  // rank of d

  fpm::PatternSet sink;
  fpm::MiningStats stats;
  SliceMiningContext ctx(flist, 2, &sink, &stats);
  std::vector<uint64_t> counts;
  const std::vector<Rank> frequent = ctx.CountFrequent(proj, &counts);
  ASSERT_EQ(frequent.size(), 3u);  // f, g, c (a,e have count 1 here).

  std::vector<Rank> prefix{0};  // "d"
  EXPECT_TRUE(ctx.TrySingleGroup(proj, frequent, counts, &prefix));
  EXPECT_EQ(sink.size(), 7u);  // 2^3 - 1 combinations.
  for (const auto& p : sink) EXPECT_EQ(p.support, 2u);
}

TEST(SliceDbTest, SingleGroupLemmaRejectedWhenOutsCarryFrequentItems) {
  const CompressedDb cdb = PaperCdb();
  const FList flist = FList::FromCounts(cdb.CountItemSupports(9), 2);
  const SliceDb sdb = SliceDb::Build(cdb, flist);

  fpm::PatternSet sink;
  fpm::MiningStats stats;
  SliceMiningContext ctx(flist, 2, &sink, &stats);
  std::vector<uint64_t> counts;
  const std::vector<Rank> frequent = ctx.CountFrequent(sdb.slices, &counts);
  std::vector<Rank> prefix;
  // At the top level items live in two groups and in outlying parts.
  EXPECT_FALSE(ctx.TrySingleGroup(sdb.slices, frequent, counts, &prefix));
  EXPECT_TRUE(sink.empty());
}

TEST(SliceDbTest, DroppedWhenNothingSurvivesEncoding) {
  CompressedDb cdb;
  cdb.AddGroup(std::vector<ItemId>{1});
  cdb.AddMember(0, std::vector<ItemId>{2});
  // Only item 5 is frequent in this artificial F-list.
  std::vector<uint64_t> counts(6, 0);
  counts[5] = 10;
  const FList flist = FList::FromCounts(counts, 5);
  const SliceDb sdb = SliceDb::Build(cdb, flist);
  EXPECT_TRUE(sdb.slices.empty());
}

TEST(SliceDbTest, DedupeWeightedOutsIsCanonicallySorted) {
  // Regression: the merge goes through a hash map, whose iteration order is
  // an implementation detail. The result must come back merged AND in
  // lexicographic row order regardless of input order, or downstream
  // consumers inherit platform-dependent (and parallel-merge-dependent)
  // nondeterminism.
  std::vector<std::pair<std::vector<Rank>, uint64_t>> outs = {
      {{3, 4}, 1}, {{1, 2}, 2}, {{3, 4}, 5}, {{1}, 1}, {{1, 2}, 1},
  };
  DedupeWeightedOuts(&outs);
  const std::vector<std::pair<std::vector<Rank>, uint64_t>> expected = {
      {{1}, 1}, {{1, 2}, 3}, {{3, 4}, 6},
  };
  EXPECT_EQ(outs, expected);

  // Same multiset presented in a different order dedupes to the same value.
  std::vector<std::pair<std::vector<Rank>, uint64_t>> shuffled = {
      {{1, 2}, 1}, {{3, 4}, 5}, {{1}, 1}, {{1, 2}, 2}, {{3, 4}, 1},
  };
  DedupeWeightedOuts(&shuffled);
  EXPECT_EQ(shuffled, expected);
}

}  // namespace
}  // namespace gogreen::core
