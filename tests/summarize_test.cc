// Tests for closed/maximal pattern extraction and pattern-set summaries.

#include "fpm/summarize.h"

#include <gtest/gtest.h>

#include "fpm/miner.h"
#include "fpm/pattern_trie.h"
#include "tests/test_util.h"

namespace gogreen::fpm {
namespace {

using testutil::MinePatterns;

TEST(SummarizeTest, ClosedPatternsOnPaperExample) {
  // At support 3 the complete set has 11 patterns. fgc:3 closes f, g, fg,
  // fc, gc (all support 3); ae:3 closes a; ec:3 is closed; e:4, c:4 are
  // closed (no superset with support 4).
  auto fp = MinePatterns(*CreateMiner(MinerKind::kFpGrowth),
                         testutil::PaperExampleDb(), 3);
  ASSERT_TRUE(fp.ok());
  PatternSet closed = ClosedPatterns(*fp);
  closed.SortCanonical();
  EXPECT_EQ(closed.size(), 5u);
  EXPECT_EQ(closed.SupportOf(std::vector<ItemId>{2, 5, 6}), 3u);  // fgc
  EXPECT_EQ(closed.SupportOf(std::vector<ItemId>{0, 4}), 3u);     // ae
  EXPECT_EQ(closed.SupportOf(std::vector<ItemId>{2, 4}), 3u);     // ec
  EXPECT_EQ(closed.SupportOf(std::vector<ItemId>{4}), 4u);        // e
  EXPECT_EQ(closed.SupportOf(std::vector<ItemId>{2}), 4u);        // c
}

TEST(SummarizeTest, MaximalPatternsOnPaperExample) {
  auto fp = MinePatterns(*CreateMiner(MinerKind::kFpGrowth),
                         testutil::PaperExampleDb(), 3);
  ASSERT_TRUE(fp.ok());
  PatternSet maximal = MaximalPatterns(*fp);
  maximal.SortCanonical();
  // Maximal: fgc, ae, ec (e and c are subsumed by ec/fgc; everything else
  // has a frequent superset).
  EXPECT_EQ(maximal.size(), 3u);
  EXPECT_EQ(maximal.SupportOf(std::vector<ItemId>{2, 5, 6}), 3u);
  EXPECT_EQ(maximal.SupportOf(std::vector<ItemId>{0, 4}), 3u);
  EXPECT_EQ(maximal.SupportOf(std::vector<ItemId>{2, 4}), 3u);
}

TEST(SummarizeTest, MaximalSubsetOfClosedSubsetOfAll) {
  const auto db = testutil::RandomDb(77, 400, 40, 6.0);
  auto fp = MinePatterns(*CreateMiner(MinerKind::kEclat), db, 15);
  ASSERT_TRUE(fp.ok());
  const PatternSet closed = ClosedPatterns(*fp);
  const PatternSet maximal = MaximalPatterns(*fp);
  EXPECT_LE(maximal.size(), closed.size());
  EXPECT_LE(closed.size(), fp->size());
  EXPECT_GT(maximal.size(), 0u);

  // Every maximal pattern is closed.
  PatternTrie closed_index;
  for (const auto& p : closed) closed_index.Insert(ItemSpan(p.items));
  for (const auto& p : maximal) {
    EXPECT_NE(closed_index.Find(ItemSpan(p.items)), PatternTrie::kNoNode)
        << p.ToString();
  }
}

TEST(SummarizeTest, ClosedSetDeterminesAllSupports) {
  // Lossless property: every frequent pattern's support equals the max
  // support among its closed supersets.
  const auto db = testutil::RandomDb(78, 200, 25, 5.0);
  auto fp = MinePatterns(*CreateMiner(MinerKind::kApriori), db, 8);
  ASSERT_TRUE(fp.ok());
  const PatternSet closed = ClosedPatterns(*fp);
  for (const auto& p : *fp) {
    uint64_t best = 0;
    for (const auto& c : closed) {
      if (c.ContainsItems(ItemSpan(p.items))) {
        best = std::max(best, c.support);
      }
    }
    EXPECT_EQ(best, p.support) << p.ToString();
  }
}

TEST(SummarizeTest, IdenticalTransactionsCollapseToOneClosed) {
  TransactionDb db;
  for (int i = 0; i < 10; ++i) db.AddTransaction({1, 2, 3});
  auto fp = MinePatterns(*CreateMiner(MinerKind::kHMine), db, 5);
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->size(), 7u);
  EXPECT_EQ(ClosedPatterns(*fp).size(), 1u);
  EXPECT_EQ(MaximalPatterns(*fp).size(), 1u);
}

TEST(SummarizeTest, EmptySet) {
  EXPECT_TRUE(ClosedPatterns(PatternSet()).empty());
  EXPECT_TRUE(MaximalPatterns(PatternSet()).empty());
  const PatternSetSummary s = Summarize(PatternSet());
  EXPECT_EQ(s.count, 0u);
}

TEST(SummarizeTest, SummaryStatistics) {
  PatternSet fp;
  fp.Add({1}, 10);
  fp.Add({1, 2}, 6);
  fp.Add({1, 2, 3}, 3);
  const PatternSetSummary s = Summarize(fp);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.max_length, 3u);
  EXPECT_DOUBLE_EQ(s.avg_length, 2.0);
  EXPECT_EQ(s.max_support, 10u);
  EXPECT_EQ(s.min_support, 3u);
  ASSERT_EQ(s.length_histogram.size(), 4u);
  EXPECT_EQ(s.length_histogram[1], 1u);
  EXPECT_EQ(s.length_histogram[2], 1u);
  EXPECT_EQ(s.length_histogram[3], 1u);
  EXPECT_NE(s.ToString().find("3 patterns"), std::string::npos);
}

}  // namespace
}  // namespace gogreen::fpm
