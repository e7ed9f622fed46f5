// Tests for the constraint framework (Section 2): categories, satisfaction,
// tighten/relax classification, and set-level comparison.

#include "fpm/constraints.h"

#include <gtest/gtest.h>

namespace gogreen::fpm {
namespace {

TEST(ConstraintsTest, MaxLengthIsAntiMonotone) {
  auto c = MakeMaxLength(2);
  EXPECT_EQ(c->category(), ConstraintCategory::kAntiMonotone);
  EXPECT_TRUE(c->Satisfies(Pattern({1, 2}, 5)));
  EXPECT_FALSE(c->Satisfies(Pattern({1, 2, 3}, 5)));
}

TEST(ConstraintsTest, MaxLengthDelta) {
  auto old_c = MakeMaxLength(3);
  EXPECT_EQ(MakeMaxLength(3)->CompareTo(*old_c), ConstraintDelta::kUnchanged);
  EXPECT_EQ(MakeMaxLength(2)->CompareTo(*old_c), ConstraintDelta::kTightened);
  EXPECT_EQ(MakeMaxLength(5)->CompareTo(*old_c), ConstraintDelta::kRelaxed);
}

TEST(ConstraintsTest, MinLengthIsMonotone) {
  auto c = MakeMinLength(2);
  EXPECT_EQ(c->category(), ConstraintCategory::kMonotone);
  EXPECT_FALSE(c->Satisfies(Pattern({1}, 5)));
  EXPECT_TRUE(c->Satisfies(Pattern({1, 2}, 5)));
  // Raising the minimum length shrinks the solution space.
  EXPECT_EQ(MakeMinLength(3)->CompareTo(*MakeMinLength(2)),
            ConstraintDelta::kTightened);
  EXPECT_EQ(MakeMinLength(1)->CompareTo(*MakeMinLength(2)),
            ConstraintDelta::kRelaxed);
}

TEST(ConstraintsTest, ItemSubsetIsSuccinct) {
  auto c = MakeItemSubset({1, 2, 3});
  EXPECT_EQ(c->category(), ConstraintCategory::kSuccinct);
  EXPECT_TRUE(c->Satisfies(Pattern({1, 3}, 2)));
  EXPECT_FALSE(c->Satisfies(Pattern({1, 4}, 2)));
  EXPECT_EQ(MakeItemSubset({1, 2})->CompareTo(*c),
            ConstraintDelta::kTightened);
  EXPECT_EQ(MakeItemSubset({1, 2, 3, 4})->CompareTo(*c),
            ConstraintDelta::kRelaxed);
  EXPECT_EQ(MakeItemSubset({1, 5})->CompareTo(*c),
            ConstraintDelta::kIncomparable);
}

TEST(ConstraintsTest, RequiresAnySemantics) {
  auto c = MakeRequiresAny({3, 7});
  EXPECT_TRUE(c->Satisfies(Pattern({1, 3}, 2)));
  EXPECT_TRUE(c->Satisfies(Pattern({7}, 2)));
  EXPECT_FALSE(c->Satisfies(Pattern({1, 2}, 2)));
  // A larger required set accepts more patterns -> relaxed.
  EXPECT_EQ(MakeRequiresAny({3, 7, 9})->CompareTo(*c),
            ConstraintDelta::kRelaxed);
  EXPECT_EQ(MakeRequiresAny({3})->CompareTo(*c),
            ConstraintDelta::kTightened);
}

TEST(ConstraintsTest, MaxSumWithValues) {
  // Items 0..3 priced 1, 10, 100, 1000.
  const std::vector<double> prices = {1, 10, 100, 1000};
  auto c = MakeMaxSum(prices, 111);
  EXPECT_EQ(c->category(), ConstraintCategory::kAntiMonotone);
  EXPECT_TRUE(c->Satisfies(Pattern({0, 1, 2}, 1)));   // 111 <= 111
  EXPECT_FALSE(c->Satisfies(Pattern({0, 3}, 1)));     // 1001
  EXPECT_TRUE(c->Satisfies(Pattern({5}, 1)));  // Unknown item counts as 0.
  EXPECT_EQ(MakeMaxSum(prices, 50)->CompareTo(*c),
            ConstraintDelta::kTightened);
  EXPECT_EQ(MakeMaxSum(prices, 2000)->CompareTo(*c),
            ConstraintDelta::kRelaxed);
  // Different value tables cannot be compared.
  EXPECT_EQ(MakeMaxSum({1, 2}, 111)->CompareTo(*c),
            ConstraintDelta::kIncomparable);
}

TEST(ConstraintsTest, MinAvgIsConvertible) {
  const std::vector<double> v = {10, 20, 30};
  auto c = MakeMinAvg(v, 15);
  EXPECT_EQ(c->category(), ConstraintCategory::kConvertible);
  EXPECT_TRUE(c->Satisfies(Pattern({1}, 1)));       // avg 20
  EXPECT_TRUE(c->Satisfies(Pattern({0, 1, 2}, 1)));  // avg 20
  EXPECT_FALSE(c->Satisfies(Pattern({0}, 1)));       // avg 10
  EXPECT_EQ(MakeMinAvg(v, 25)->CompareTo(*c), ConstraintDelta::kTightened);
  EXPECT_EQ(MakeMinAvg(v, 5)->CompareTo(*c), ConstraintDelta::kRelaxed);
}

TEST(ConstraintSetTest, FilterAppliesSupportAndConstraints) {
  PatternSet fp;
  fp.Add({1}, 10);
  fp.Add({1, 2}, 8);
  fp.Add({1, 2, 3}, 4);
  fp.Add({2, 3}, 9);
  ConstraintSet cs(5);
  cs.Add(MakeMinLength(2));
  const PatternSet out = cs.Filter(fp);
  EXPECT_EQ(out.size(), 2u);  // {1,2}:8 and {2,3}:9.
}

TEST(ConstraintSetTest, CompareSupportOnly) {
  ConstraintSet old_cs(10);
  EXPECT_EQ(ConstraintSet(10).CompareTo(old_cs),
            ConstraintDelta::kUnchanged);
  EXPECT_EQ(ConstraintSet(20).CompareTo(old_cs),
            ConstraintDelta::kTightened);
  EXPECT_EQ(ConstraintSet(5).CompareTo(old_cs), ConstraintDelta::kRelaxed);
}

TEST(ConstraintSetTest, MixedChangesAreIncomparable) {
  ConstraintSet old_cs(10);
  old_cs.Add(MakeMaxLength(3));
  // Support relaxed but length tightened.
  ConstraintSet new_cs(5);
  new_cs.Add(MakeMaxLength(2));
  EXPECT_EQ(new_cs.CompareTo(old_cs), ConstraintDelta::kIncomparable);
}

TEST(ConstraintSetTest, AddedConstraintTightens) {
  ConstraintSet old_cs(10);
  ConstraintSet new_cs(10);
  new_cs.Add(MakeMaxLength(3));
  EXPECT_EQ(new_cs.CompareTo(old_cs), ConstraintDelta::kTightened);
  // Symmetrically, dropping it relaxes.
  EXPECT_EQ(old_cs.CompareTo(new_cs), ConstraintDelta::kRelaxed);
}

TEST(ConstraintSetTest, CopyIsDeep) {
  ConstraintSet a(10);
  a.Add(MakeMaxLength(3));
  ConstraintSet b = a;
  EXPECT_EQ(b.NumConstraints(), 1u);
  EXPECT_EQ(b.CompareTo(a), ConstraintDelta::kUnchanged);
}

TEST(ConstraintSetTest, DescribeMentionsEveryPart) {
  ConstraintSet cs(42);
  cs.Add(MakeMaxLength(3));
  const std::string desc = cs.Describe();
  EXPECT_NE(desc.find("42"), std::string::npos);
  EXPECT_NE(desc.find("|X| <= 3"), std::string::npos);
  EXPECT_NE(desc.find("anti-monotone"), std::string::npos);
}

}  // namespace
}  // namespace gogreen::fpm
