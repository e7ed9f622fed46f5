// Unit and property tests for the five substrate miners: exact results on the
// paper's example database, brute-force cross-checks, and full pairwise
// equivalence on randomized databases.

#include <gtest/gtest.h>

#include <memory>

#include "fpm/eclat.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "tests/test_util.h"

namespace gogreen::fpm {
namespace {

using testutil::MakeDb;
using testutil::MinePatterns;
using testutil::PaperExampleDb;
using testutil::RandomDb;
using testutil::RandomDenseDb;

constexpr MinerKind kAllMiners[] = {
    MinerKind::kApriori, MinerKind::kEclat, MinerKind::kHMine,
    MinerKind::kFpGrowth, MinerKind::kTreeProjection};

PatternSet MustMine(MinerKind kind, const TransactionDb& db, uint64_t minsup) {
  auto miner = CreateMiner(kind);
  auto result = MinePatterns(*miner, db, minsup);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Brute-force complete-set miner by explicit subset enumeration over the
/// distinct items; only usable for tiny databases.
PatternSet BruteForceMine(const TransactionDb& db, uint64_t minsup) {
  std::vector<ItemId> universe;
  auto counts = db.CountItemSupports();
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) universe.push_back(static_cast<ItemId>(i));
  }
  PatternSet out;
  const size_t n = universe.size();
  EXPECT_LE(n, 20u) << "brute force limited to 20 distinct items";
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    std::vector<ItemId> items;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) items.push_back(universe[i]);
    }
    const uint64_t sup = db.CountSupport(ItemSpan(items));
    if (sup >= minsup) out.Add(std::move(items), sup);
  }
  return out;
}

TEST(MinersTest, PaperExampleAtSupport3) {
  // Section 3.1, Example 1: FP at xi_old = 3 is
  // {f:3, fg:3, fgc:3, g:3, gc:3, a:3, ae:3, e:4, ec:3, c:4} plus fc:3
  // (the paper text omits fc but it follows from fgc:3; our miners return the
  // complete set).
  constexpr ItemId a = 0, c = 2, e = 4, f = 5, g = 6;
  const TransactionDb db = PaperExampleDb();
  for (MinerKind kind : kAllMiners) {
    SCOPED_TRACE(MinerKindName(kind));
    PatternSet got = MustMine(kind, db, 3);
    got.SortCanonical();
    EXPECT_EQ(got.size(), 11u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{f}), 3u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{f, g}), 3u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c, f, g}), 3u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c, g}), 3u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{a, e}), 3u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c, e}), 3u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{e}), 4u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c}), 4u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c, f}), 3u);
  }
}

TEST(MinersTest, PaperExampleAtSupport2MatchesExample3) {
  // Section 3.3, Example 3 spot checks at xi_new = 2.
  constexpr ItemId a = 0, c = 2, d = 3, e = 4, f = 5, g = 6;
  const TransactionDb db = PaperExampleDb();
  for (MinerKind kind : kAllMiners) {
    SCOPED_TRACE(MinerKindName(kind));
    const PatternSet got = MustMine(kind, db, 2);
    // d-extensions (step 1 of Example 3).
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c, d}), 2u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{d, f}), 2u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{d, g}), 2u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c, d, f, g}), 2u);
    // f-extensions (step 2).
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{f, g}), 3u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{e, f, g}), 2u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c, e, f, g}), 2u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{c, f}), 3u);
    // a-extensions (step 4).
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{a, e}), 3u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{a, c, e}), 2u);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{a, c}), 2u);
  }
}

TEST(MinersTest, AgainstBruteForceTinyDbs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const TransactionDb db = RandomDb(seed, 30, 10, 4.0);
    for (uint64_t minsup : {1u, 2u, 3u, 5u}) {
      PatternSet expected = BruteForceMine(db, minsup);
      for (MinerKind kind : kAllMiners) {
        SCOPED_TRACE(testing::Message() << MinerKindName(kind) << " seed="
                                        << seed << " minsup=" << minsup);
        PatternSet got = MustMine(kind, db, minsup);
        EXPECT_TRUE(PatternSet::Equal(&expected, &got))
            << "missing: " << PatternSet::Difference(&expected, &got).size()
            << " extra: " << PatternSet::Difference(&got, &expected).size();
      }
    }
  }
}

struct EquivalenceParam {
  uint64_t seed;
  size_t num_transactions;
  size_t num_items;
  double avg_len;
  uint64_t minsup;
  bool dense;
};

class MinerEquivalenceTest : public testing::TestWithParam<EquivalenceParam> {};

TEST_P(MinerEquivalenceTest, AllMinersAgree) {
  const EquivalenceParam& p = GetParam();
  const TransactionDb db =
      p.dense ? RandomDenseDb(p.seed, p.num_transactions, p.num_items, 3)
              : RandomDb(p.seed, p.num_transactions, p.num_items, p.avg_len);
  PatternSet reference = MustMine(MinerKind::kApriori, db, p.minsup);
  for (MinerKind kind : kAllMiners) {
    if (kind == MinerKind::kApriori) continue;
    SCOPED_TRACE(MinerKindName(kind));
    PatternSet got = MustMine(kind, db, p.minsup);
    EXPECT_TRUE(PatternSet::Equal(&reference, &got))
        << "missing: " << PatternSet::Difference(&reference, &got).size()
        << " extra: " << PatternSet::Difference(&got, &reference).size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sparse, MinerEquivalenceTest,
    testing::Values(EquivalenceParam{11, 200, 50, 6.0, 10, false},
                    EquivalenceParam{12, 500, 100, 8.0, 25, false},
                    EquivalenceParam{13, 300, 40, 5.0, 5, false},
                    EquivalenceParam{14, 1000, 200, 10.0, 40, false},
                    EquivalenceParam{15, 100, 30, 4.0, 2, false}));

INSTANTIATE_TEST_SUITE_P(
    Dense, MinerEquivalenceTest,
    testing::Values(EquivalenceParam{21, 200, 8, 0, 120, true},
                    EquivalenceParam{22, 400, 10, 0, 260, true},
                    EquivalenceParam{23, 150, 12, 0, 100, true}));

TEST(MinersTest, EmptyDatabase) {
  TransactionDb db;
  for (MinerKind kind : kAllMiners) {
    SCOPED_TRACE(MinerKindName(kind));
    const PatternSet got = MustMine(kind, db, 1);
    EXPECT_TRUE(got.empty());
  }
}

TEST(MinersTest, MinSupportZeroRejected) {
  const TransactionDb db = PaperExampleDb();
  for (MinerKind kind : kAllMiners) {
    auto miner = CreateMiner(kind);
    auto result = MinePatterns(*miner, db, 0);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(MinersTest, SupportAboveEveryItemYieldsEmpty) {
  const TransactionDb db = PaperExampleDb();
  for (MinerKind kind : kAllMiners) {
    SCOPED_TRACE(MinerKindName(kind));
    EXPECT_TRUE(MustMine(kind, db, 100).empty());
  }
}

TEST(MinersTest, SingleTransaction) {
  const TransactionDb db = MakeDb({{3, 7, 9}});
  for (MinerKind kind : kAllMiners) {
    SCOPED_TRACE(MinerKindName(kind));
    PatternSet got = MustMine(kind, db, 1);
    EXPECT_EQ(got.size(), 7u);  // All non-empty subsets of a 3-itemset.
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{3, 7, 9}), 1u);
  }
}

TEST(MinersTest, DuplicateItemsInInputAreDeduplicated) {
  TransactionDb db;
  db.AddTransaction({5, 5, 2, 2, 2});
  db.AddTransaction({2, 5});
  for (MinerKind kind : kAllMiners) {
    SCOPED_TRACE(MinerKindName(kind));
    PatternSet got = MustMine(kind, db, 2);
    EXPECT_EQ(got.SupportOf(std::vector<ItemId>{2, 5}), 2u);
  }
}

TEST(MinersTest, StatsPopulated) {
  const TransactionDb db = RandomDb(99, 200, 30, 6.0);
  auto result = CreateMiner(MinerKind::kHMine)->Mine(db, MineRequest::At(5));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.patterns_emitted, result->patterns.size());
  EXPECT_GT(result->stats.items_scanned, 0u);
}

TEST(MinersTest, EclatLayoutsProduceIdenticalResults) {
  for (uint64_t seed : {41u, 42u}) {
    const TransactionDb sparse = RandomDb(seed, 300, 60, 6.0);
    const TransactionDb dense = RandomDenseDb(seed, 200, 10, 3);
    for (const TransactionDb* db : {&sparse, &dense}) {
      const uint64_t minsup = db == &sparse ? 10 : 120;
      EclatMiner lists(EclatLayout::kTidLists);
      EclatMiner bits(EclatLayout::kBitsets);
      auto a = MinePatterns(lists, *db, minsup);
      auto b = MinePatterns(bits, *db, minsup);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_TRUE(PatternSet::Equal(&a.value(), &b.value()));
    }
  }
}

TEST(MinersTest, AbsoluteSupportConversion) {
  EXPECT_EQ(AbsoluteSupport(0.05, 100), 5u);
  EXPECT_EQ(AbsoluteSupport(0.05, 101), 6u);  // Ceil.
  EXPECT_EQ(AbsoluteSupport(1.0, 7), 7u);
  EXPECT_EQ(AbsoluteSupport(0.001, 10), 1u);  // Clamped to >= 1.
}

}  // namespace
}  // namespace gogreen::fpm
