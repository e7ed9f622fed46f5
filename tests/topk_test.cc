// Tests for top-K pattern mining.

#include "fpm/topk.h"

#include <gtest/gtest.h>

#include "fpm/miner.h"
#include "tests/test_util.h"

namespace gogreen::fpm {
namespace {

using testutil::MinePatterns;

TEST(TopKTest, PaperExampleTop3) {
  TopKOptions options;
  options.k = 3;
  auto result = MineTopK(testutil::PaperExampleDb(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 3u);
  // Highest supports: c:4 and e:4, then one of the support-3 patterns
  // (canonical tie-break picks {0} = a).
  EXPECT_EQ((*result)[0].support, 4u);
  EXPECT_EQ((*result)[1].support, 4u);
  EXPECT_EQ((*result)[2].support, 3u);
}

TEST(TopKTest, ExactlyKReturnedAndSortedBySupport) {
  const auto db = testutil::RandomDb(123, 400, 40, 6.0);
  TopKOptions options;
  options.k = 25;
  auto result = MineTopK(db, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 25u);
  for (size_t i = 1; i < result->size(); ++i) {
    EXPECT_GE((*result)[i - 1].support, (*result)[i].support);
  }
}

TEST(TopKTest, MatchesCompleteSetPrefix) {
  // The top-K result must equal the K best of the complete set at
  // threshold = the K-th support.
  const auto db = testutil::RandomDb(124, 300, 30, 5.0);
  TopKOptions options;
  options.k = 15;
  auto topk = MineTopK(db, options);
  ASSERT_TRUE(topk.ok());
  const uint64_t kth = (*topk)[topk->size() - 1].support;
  auto complete = MinePatterns(*CreateMiner(MinerKind::kFpGrowth), db, kth);
  ASSERT_TRUE(complete.ok());
  // Every returned pattern's support appears in the complete set with the
  // same value, and nothing in the complete set beats the K-th support
  // without being included.
  size_t better = 0;
  for (const auto& p : *complete) {
    if (p.support > kth) ++better;
    EXPECT_EQ(complete->SupportOf(ItemSpan(p.items)), p.support);
  }
  EXPECT_LE(better, options.k);
  for (const auto& p : *topk) {
    EXPECT_EQ(complete->SupportOf(ItemSpan(p.items)), p.support);
  }
}

TEST(TopKTest, MinLengthSkipsSingletons) {
  TopKOptions options;
  options.k = 5;
  options.min_length = 2;
  auto result = MineTopK(testutil::PaperExampleDb(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 5u);
  for (const auto& p : *result) EXPECT_GE(p.size(), 2u);
  // The best 2+-pattern in Table 1 has support 3.
  EXPECT_EQ((*result)[0].support, 3u);
}

TEST(TopKTest, FewerPatternsThanK) {
  TransactionDb db;
  db.AddTransaction({1, 2});
  TopKOptions options;
  options.k = 100;
  auto result = MineTopK(db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // {1},{2},{1,2} only.
}

TEST(TopKTest, EmptyDatabase) {
  TransactionDb db;
  auto result = MineTopK(db, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(TopKTest, BadArguments) {
  TopKOptions zero_k;
  zero_k.k = 0;
  EXPECT_FALSE(MineTopK(testutil::PaperExampleDb(), zero_k).ok());
  TopKOptions zero_len;
  zero_len.min_length = 0;
  EXPECT_FALSE(MineTopK(testutil::PaperExampleDb(), zero_len).ok());
}

}  // namespace
}  // namespace gogreen::fpm
