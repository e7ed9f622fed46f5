// Tests for association-rule generation.

#include "fpm/rules.h"

#include <gtest/gtest.h>

#include "fpm/miner.h"
#include "tests/test_util.h"

namespace gogreen::fpm {
namespace {

using testutil::MinePatterns;

/// Complete set for the paper example at support 3 (11 patterns).
PatternSet PaperFp() {
  auto miner = CreateMiner(MinerKind::kFpGrowth);
  auto result = MinePatterns(*miner, testutil::PaperExampleDb(), 3);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

const Rule* FindRule(const std::vector<Rule>& rules,
                     const std::vector<ItemId>& ante,
                     const std::vector<ItemId>& cons) {
  for (const Rule& r : rules) {
    if (r.antecedent == ante && r.consequent == cons) return &r;
  }
  return nullptr;
}

TEST(RulesTest, PaperExampleConfidences) {
  auto rules = GenerateRules(PaperFp(), 5, {/*min_confidence=*/0.0});
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();

  // {f,g} -> {c}: support(fgc)=3, support(fg)=3 -> confidence 1.0,
  // lift = 1.0 / (4/5) = 1.25.
  const Rule* r = FindRule(*rules, {5, 6}, {2});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->support, 3u);
  EXPECT_DOUBLE_EQ(r->confidence, 1.0);
  EXPECT_DOUBLE_EQ(r->lift, 1.25);

  // {e} -> {a}: support(ae)=3, support(e)=4 -> confidence 0.75,
  // lift = 0.75 / (3/5) = 1.25.
  const Rule* r2 = FindRule(*rules, {4}, {0});
  ASSERT_NE(r2, nullptr);
  EXPECT_DOUBLE_EQ(r2->confidence, 0.75);
  EXPECT_DOUBLE_EQ(r2->lift, 1.25);
}

TEST(RulesTest, MinConfidenceFilters) {
  auto all = GenerateRules(PaperFp(), 5, {0.0});
  auto strict = GenerateRules(PaperFp(), 5, {0.9});
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(strict.ok());
  EXPECT_LT(strict->size(), all->size());
  for (const Rule& r : *strict) EXPECT_GE(r.confidence, 0.9);
}

TEST(RulesTest, SortedByConfidenceDescending) {
  auto rules = GenerateRules(PaperFp(), 5, {0.0});
  ASSERT_TRUE(rules.ok());
  for (size_t i = 1; i < rules->size(); ++i) {
    EXPECT_GE((*rules)[i - 1].confidence, (*rules)[i].confidence);
  }
}

TEST(RulesTest, MultiItemConsequent) {
  RuleOptions options;
  options.min_confidence = 0.0;
  options.max_consequent = 2;
  auto rules = GenerateRules(PaperFp(), 5, options);
  ASSERT_TRUE(rules.ok());
  // {f} -> {c,g} exists: support(fgc)=3 / support(f)=3 = 1.0.
  const Rule* r = FindRule(*rules, {5}, {2, 6});
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->confidence, 1.0);
}

TEST(RulesTest, IncompleteSetRejected) {
  PatternSet fp;
  fp.Add({1, 2}, 5);  // Subsets {1}, {2} missing.
  auto rules = GenerateRules(fp, 10, {0.0});
  EXPECT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument);
}

TEST(RulesTest, BadArgumentsRejected) {
  EXPECT_FALSE(GenerateRules(PaperFp(), 0, {0.5}).ok());
  EXPECT_FALSE(GenerateRules(PaperFp(), 5, {-0.1}).ok());
  EXPECT_FALSE(GenerateRules(PaperFp(), 5, {1.5}).ok());
  RuleOptions bad;
  bad.max_consequent = 0;
  EXPECT_FALSE(GenerateRules(PaperFp(), 5, bad).ok());
}

TEST(RulesTest, SingletonPatternsYieldNoRules) {
  PatternSet fp;
  fp.Add({1}, 5);
  fp.Add({2}, 3);
  auto rules = GenerateRules(fp, 10, {0.0});
  ASSERT_TRUE(rules.ok());
  EXPECT_TRUE(rules->empty());
}

TEST(RulesTest, RandomizedConfidenceDefinitionHolds) {
  const auto db = testutil::RandomDb(66, 300, 30, 5.0);
  auto fp = MinePatterns(*CreateMiner(MinerKind::kEclat), db, 10);
  ASSERT_TRUE(fp.ok());
  auto rules = GenerateRules(*fp, db.NumTransactions(), {0.3});
  ASSERT_TRUE(rules.ok());
  for (const Rule& r : *rules) {
    // Recompute from raw data.
    std::vector<ItemId> joint = r.antecedent;
    joint.insert(joint.end(), r.consequent.begin(), r.consequent.end());
    CanonicalizeItems(&joint);
    const uint64_t joint_sup = db.CountSupport(ItemSpan(joint));
    const uint64_t ante_sup = db.CountSupport(ItemSpan(r.antecedent));
    EXPECT_EQ(r.support, joint_sup);
    EXPECT_DOUBLE_EQ(r.confidence, static_cast<double>(joint_sup) /
                                       static_cast<double>(ante_sup));
  }
}

TEST(RulesTest, ToStringRendersAllParts) {
  Rule r;
  r.antecedent = {1, 2};
  r.consequent = {3};
  r.support = 7;
  r.confidence = 0.5;
  r.lift = 2.0;
  const std::string s = r.ToString();
  EXPECT_NE(s.find("{1,2}"), std::string::npos);
  EXPECT_NE(s.find("{3}"), std::string::npos);
  EXPECT_NE(s.find("sup=7"), std::string::npos);
}

}  // namespace
}  // namespace gogreen::fpm
