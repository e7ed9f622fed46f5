// Unit tests for core::SelectSeed: route classification (exact / filter-down
// / recycle), route preference ordering, and the within-route tie-breaking
// rules — filter-down wants the largest cached support below the target,
// recycling wants the smallest above it (the paper's tightest-xi_old rule),
// then a memoized compressed image, then recency.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/seed_selection.h"

namespace gogreen {
namespace {

using core::SeedCandidate;
using core::SeedChoice;
using core::SeedRoute;
using core::SelectSeed;

SeedCandidate Cand(uint64_t min_support, bool has_compressed = false,
                   uint64_t last_used = 0, size_t tag = 0) {
  SeedCandidate c;
  c.min_support = min_support;
  c.has_compressed = has_compressed;
  c.last_used = last_used;
  c.tag = tag;
  return c;
}

TEST(SeedSelectionTest, EmptyCandidatesGiveNoRoute) {
  EXPECT_EQ(SelectSeed({}, 10).route, SeedRoute::kNone);
}

TEST(SeedSelectionTest, ZeroTargetGivesNoRoute) {
  EXPECT_EQ(SelectSeed({Cand(10)}, 0).route, SeedRoute::kNone);
}

TEST(SeedSelectionTest, ZeroSupportCandidatesAreSkipped) {
  EXPECT_EQ(SelectSeed({Cand(0), Cand(0)}, 10).route, SeedRoute::kNone);
}

TEST(SeedSelectionTest, SingleCandidateClassifiesByComparison) {
  // Equal support: exact hit.
  EXPECT_EQ(SelectSeed({Cand(10)}, 10).route, SeedRoute::kExact);
  // Cached below the target: the cached set is a superset, filter it.
  EXPECT_EQ(SelectSeed({Cand(5)}, 10).route, SeedRoute::kFilterDown);
  // Cached above the target (xi_old >= xi_new): recycle.
  EXPECT_EQ(SelectSeed({Cand(20)}, 10).route, SeedRoute::kRecycle);
}

TEST(SeedSelectionTest, RoutePreferenceExactBeatsFilterBeatsRecycle) {
  // All three classes present: exact wins.
  SeedChoice c = SelectSeed({Cand(20, false, 0, 1), Cand(5, false, 0, 2),
                             Cand(10, false, 0, 3)},
                            10);
  EXPECT_EQ(c.route, SeedRoute::kExact);
  EXPECT_EQ(c.tag, 3u);
  EXPECT_EQ(c.min_support, 10u);

  // No exact: filter-down beats recycle even when the recycle candidate has
  // a memoized image and better recency.
  c = SelectSeed({Cand(20, true, 99, 1), Cand(5, false, 0, 2)}, 10);
  EXPECT_EQ(c.route, SeedRoute::kFilterDown);
  EXPECT_EQ(c.tag, 2u);
}

TEST(SeedSelectionTest, FilterDownPrefersLargestSupportBelowTarget) {
  // xi' = 9 is closest below the target: fewest extra patterns to drop.
  SeedChoice c = SelectSeed(
      {Cand(3, false, 0, 1), Cand(9, false, 0, 2), Cand(6, false, 0, 3)}, 10);
  EXPECT_EQ(c.route, SeedRoute::kFilterDown);
  EXPECT_EQ(c.min_support, 9u);
  EXPECT_EQ(c.tag, 2u);
}

TEST(SeedSelectionTest, RecyclePrefersSmallestSupportAboveTarget) {
  // The tightest xi_old: the richest cached set, best compression.
  SeedChoice c = SelectSeed(
      {Cand(40, false, 0, 1), Cand(15, false, 0, 2), Cand(25, false, 0, 3)},
      10);
  EXPECT_EQ(c.route, SeedRoute::kRecycle);
  EXPECT_EQ(c.min_support, 15u);
  EXPECT_EQ(c.tag, 2u);
}

TEST(SeedSelectionTest, EqualDistanceBreaksOnCompressedImage) {
  // Same support twice; the one with a memoized image saves the compression
  // pass and must win, regardless of input order.
  SeedChoice c =
      SelectSeed({Cand(15, false, 5, 1), Cand(15, true, 0, 2)}, 10);
  EXPECT_EQ(c.route, SeedRoute::kRecycle);
  EXPECT_EQ(c.tag, 2u);

  c = SelectSeed({Cand(15, true, 0, 2), Cand(15, false, 5, 1)}, 10);
  EXPECT_EQ(c.tag, 2u);
}

TEST(SeedSelectionTest, FinalTieBreaksOnRecency) {
  SeedChoice c =
      SelectSeed({Cand(15, false, 3, 1), Cand(15, false, 7, 2)}, 10);
  EXPECT_EQ(c.tag, 2u);

  c = SelectSeed({Cand(15, false, 7, 2), Cand(15, false, 3, 1)}, 10);
  EXPECT_EQ(c.tag, 2u);
}

TEST(SeedSelectionTest, ExactTiesAlsoBreakOnImageThenRecency) {
  SeedChoice c = SelectSeed({Cand(10, false, 9, 1), Cand(10, true, 0, 2)}, 10);
  EXPECT_EQ(c.route, SeedRoute::kExact);
  EXPECT_EQ(c.tag, 2u);

  c = SelectSeed({Cand(10, false, 1, 1), Cand(10, false, 4, 2)}, 10);
  EXPECT_EQ(c.tag, 2u);
}

TEST(SeedSelectionTest, MatchesRecyclingSessionSingleCandidateContract) {
  // One cached set (a single analyst's last result) is one candidate.
  // xi_old >= xi_new must always produce a usable route — this is the
  // paper's recyclability condition (Section 3.2).
  for (uint64_t cached = 1; cached <= 30; ++cached) {
    SeedChoice c = SelectSeed({Cand(cached)}, 10);
    if (cached == 10) {
      EXPECT_EQ(c.route, SeedRoute::kExact);
    } else if (cached < 10) {
      EXPECT_EQ(c.route, SeedRoute::kFilterDown);
    } else {
      EXPECT_EQ(c.route, SeedRoute::kRecycle);
    }
  }
}

TEST(SeedSelectionTest, RouteNamesAreStable) {
  // The session REPL prints these; keep them spelled as documented.
  EXPECT_STREQ(core::SeedRouteName(SeedRoute::kNone), "none");
  EXPECT_STREQ(core::SeedRouteName(SeedRoute::kExact), "exact");
  EXPECT_STREQ(core::SeedRouteName(SeedRoute::kFilterDown), "filter-down");
  EXPECT_STREQ(core::SeedRouteName(SeedRoute::kRecycle), "recycle");
}

}  // namespace
}  // namespace gogreen
