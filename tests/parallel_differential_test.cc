// Differential oracle for the parallel mining engine: every miner, at every
// thread count in {1, 2, 4, 8}, must produce a pattern set bit-identical to
// its own single-thread run (same patterns, same supports, same order) and
// canonically equal to the sequential Apriori oracle — including through the
// full compress -> recycle pipeline at a relaxed support threshold. Work
// counters must also be exact at any thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace gogreen {
namespace {

using core::CompressedDb;
using core::CompressionStrategy;
using core::RecycleAlgo;
using fpm::MineRequest;
using fpm::MinerKind;
using fpm::MiningStats;
using fpm::PatternSet;
using fpm::TransactionDb;
using testutil::MinePatterns;
using testutil::RandomDb;
using testutil::RandomDenseDb;

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

constexpr MinerKind kParallelMiners[] = {
    MinerKind::kHMine, MinerKind::kFpGrowth, MinerKind::kTreeProjection};

constexpr RecycleAlgo kParallelRecyclers[] = {
    RecycleAlgo::kHMine, RecycleAlgo::kFpGrowth,
    RecycleAlgo::kTreeProjection};

/// Restores the global pool size on scope exit so tests cannot leak a
/// thread-count override into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(size_t threads) { ThreadPool::SetGlobalThreads(threads); }
  ~ScopedThreads() { ThreadPool::SetGlobalThreads(0); }
};

/// Bit-identical comparison: same patterns with same supports in the same
/// emission order (PatternSet::Equal would hide ordering differences).
void ExpectIdentical(const PatternSet& expected, const PatternSet& got,
                     const char* what) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], got[i])
        << what << " diverges at position " << i << ": expected "
        << expected[i].ToString() << " got " << got[i].ToString();
  }
}

void ExpectStatsEqual(const MiningStats& a, const MiningStats& b,
                      const char* what) {
  EXPECT_EQ(a.patterns_emitted, b.patterns_emitted) << what;
  EXPECT_EQ(a.projections_built, b.projections_built) << what;
  EXPECT_EQ(a.items_scanned, b.items_scanned) << what;
}

PatternSet MineDirect(MinerKind kind, const TransactionDb& db, uint64_t minsup,
                      MiningStats* stats = nullptr) {
  auto result = fpm::CreateMiner(kind)->Mine(db, MineRequest::At(minsup));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (stats != nullptr) *stats = result->stats;
  return std::move(result->patterns);
}

PatternSet MineOracle(const TransactionDb& db, uint64_t minsup) {
  return MineDirect(MinerKind::kApriori, db, minsup);
}

struct DiffParam {
  const char* name;
  uint64_t seed;
  bool dense;
  // H-Mine hands dense projections below its root to FP-trees on this input,
  // drawn with kSwitchRows rows. Sits in the padding after `dense` so the
  // struct keeps its size, which gtest prints in the test names.
  bool fp_switch;
  uint64_t xi_old;  // Mining threshold for the recycled pattern set.
  uint64_t xi_new;  // Relaxed threshold for re-mining (xi_new <= xi_old).
};
static_assert(sizeof(DiffParam) == 40, "test names embed the param size");

constexpr size_t kDenseRows = 300;
constexpr size_t kSwitchRows = 1200;

class ParallelDifferentialTest : public ::testing::TestWithParam<DiffParam> {
 protected:
  TransactionDb BuildDb() const {
    const DiffParam& p = GetParam();
    return p.dense ? RandomDenseDb(
                       p.seed, p.fp_switch ? kSwitchRows : kDenseRows, 8, 4)
                   : RandomDb(p.seed, 400, 60, 8.0);
  }
};

TEST_P(ParallelDifferentialTest, PlainMinersMatchSequentialAndOracle) {
  const TransactionDb db = BuildDb();
  const uint64_t minsup = GetParam().xi_new;
  PatternSet oracle = MineOracle(db, minsup);

  for (MinerKind kind : kParallelMiners) {
    SCOPED_TRACE(fpm::MinerKindName(kind));
    MiningStats seq_stats;
    PatternSet sequential;
    {
      ScopedThreads one(1);
      sequential = MineDirect(kind, db, minsup, &seq_stats);
    }
    PatternSet canon = sequential;
    EXPECT_TRUE(PatternSet::Equal(&oracle, &canon))
        << "sequential run disagrees with Apriori oracle";
    if (kind == MinerKind::kHMine && GetParam().fp_switch) {
      // Suffix threading builds one projection per emitted pattern; an
      // FP-tree emits many patterns per conditional tree.
      EXPECT_LT(seq_stats.projections_built, seq_stats.patterns_emitted)
          << "no projection was mined with an FP-tree";
    }

    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      ScopedThreads scoped(threads);
      MiningStats par_stats;
      const PatternSet parallel = MineDirect(kind, db, minsup, &par_stats);
      ExpectIdentical(sequential, parallel, "plain miner output");
      ExpectStatsEqual(seq_stats, par_stats, "plain miner stats");
    }
  }
}

TEST_P(ParallelDifferentialTest, CompressRecycleMatchesSequentialAndOracle) {
  const DiffParam& p = GetParam();
  const TransactionDb db = BuildDb();

  // The recycling pipeline of the paper: mine at xi_old, compress the
  // database around those patterns, re-mine at the relaxed xi_new.
  const PatternSet fp_old = MineDirect(MinerKind::kFpGrowth, db, p.xi_old);
  auto compressed = core::CompressDatabase(
      db, fp_old, {CompressionStrategy::kMcp, core::MatcherKind::kAuto});
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  const CompressedDb& cdb = compressed.value();

  PatternSet oracle = MineOracle(db, p.xi_new);

  for (RecycleAlgo algo : kParallelRecyclers) {
    SCOPED_TRACE(core::RecycleAlgoName(algo));
    MiningStats seq_stats;
    PatternSet sequential;
    {
      ScopedThreads one(1);
      auto result = core::CreateCompressedMiner(algo)->Mine(
          cdb, MineRequest::At(p.xi_new));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      sequential = std::move(result->patterns);
      seq_stats = result->stats;
    }
    PatternSet canon = sequential;
    EXPECT_TRUE(PatternSet::Equal(&oracle, &canon))
        << "sequential recycling disagrees with Apriori oracle";

    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      ScopedThreads scoped(threads);
      auto result = core::CreateCompressedMiner(algo)->Mine(
          cdb, MineRequest::At(p.xi_new));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectIdentical(sequential, result->patterns, "recycled output");
      ExpectStatsEqual(seq_stats, result->stats, "recycled stats");
    }
  }
}

TEST_P(ParallelDifferentialTest, ParallelCompressionIsBitIdentical) {
  const DiffParam& p = GetParam();
  const TransactionDb db = BuildDb();
  const PatternSet fp_old = MineDirect(MinerKind::kFpGrowth, db, p.xi_old);

  core::CompressionStats seq_stats;
  Result<CompressedDb> sequential = [&] {
    ScopedThreads one(1);
    return core::CompressDatabase(
        db, fp_old, {CompressionStrategy::kMcp, core::MatcherKind::kAuto},
        &seq_stats);
  }();
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ScopedThreads scoped(threads);
    core::CompressionStats par_stats;
    auto parallel = core::CompressDatabase(
        db, fp_old, {CompressionStrategy::kMcp, core::MatcherKind::kAuto},
        &par_stats);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(par_stats.groups, seq_stats.groups);
    EXPECT_EQ(par_stats.covered_tuples, seq_stats.covered_tuples);
    EXPECT_EQ(par_stats.uncovered_tuples, seq_stats.uncovered_tuples);
    EXPECT_EQ(par_stats.stored_items, seq_stats.stored_items);
    // The compressed databases must mine identically too.
    for (uint64_t minsup : {p.xi_new, p.xi_old}) {
      auto a = MinePatterns(*core::CreateCompressedMiner(RecycleAlgo::kHMine),
                            sequential.value(), minsup);
      auto b = MinePatterns(*core::CreateCompressedMiner(RecycleAlgo::kHMine),
                            parallel.value(), minsup);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectIdentical(a.value(), b.value(), "mining of compressed db");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Quest, ParallelDifferentialTest,
    ::testing::Values(DiffParam{"quest_a", 11, false, false, 40, 20},
                      DiffParam{"quest_b", 29, false, false, 30, 12},
                      DiffParam{"quest_c", 63, false, false, 24, 16}),
    // `tpi`, not `info`: the INSTANTIATE macro's generated function already
    // has a parameter named `info`, which the lambda would shadow.
    [](const auto& tpi) { return tpi.param.name; });

INSTANTIATE_TEST_SUITE_P(
    Dense, ParallelDifferentialTest,
    ::testing::Values(DiffParam{"dense_a", 7, true, false, 120, 60},
                      DiffParam{"dense_b", 41, true, false, 90, 45},
                      DiffParam{"dense_switch", 7, true, true, 480, 360}),
    [](const auto& tpi) { return tpi.param.name; });

}  // namespace
}  // namespace gogreen
