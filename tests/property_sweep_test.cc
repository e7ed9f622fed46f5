// Parameterized property sweeps: broad randomized configurations asserting
// the library's central invariants —
//   (1) the five plain miners agree with each other,
//   (2) every recycling pipeline (strategy x matcher x algorithm) equals
//       direct mining,
//   (3) memory-limited mining equals unlimited mining for any budget,
//   (4) compression is lossless and threshold-independent.

#include <gtest/gtest.h>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "core/disk_recycle.h"
#include "fpm/miner.h"
#include "fpm/partition.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace gogreen {
namespace {

using core::CompressDatabase;
using core::CompressionStrategy;
using core::MatcherKind;
using core::RecycleAlgo;
using fpm::PatternSet;
using fpm::TransactionDb;
using testutil::MinePatterns;

struct SweepParam {
  uint64_t seed;
  bool dense;
  uint64_t xi_old;
  uint64_t xi_new;
};

std::string ParamName(const testing::TestParamInfo<SweepParam>& info) {
  return (info.param.dense ? std::string("dense") : std::string("sparse")) +
         "_s" + std::to_string(info.param.seed) + "_o" +
         std::to_string(info.param.xi_old) + "_n" +
         std::to_string(info.param.xi_new);
}

class PipelineSweepTest : public testing::TestWithParam<SweepParam> {
 protected:
  TransactionDb MakeDbForParam() const {
    const SweepParam& p = GetParam();
    return p.dense ? testutil::RandomDenseDb(p.seed, 300, 9, 3)
                   : testutil::RandomDb(p.seed, 350, 45, 6.5);
  }
};

TEST_P(PipelineSweepTest, FullMatrixAgreesWithDirect) {
  const SweepParam& p = GetParam();
  const TransactionDb db = MakeDbForParam();

  auto direct =
      MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kEclat), db, p.xi_new);
  ASSERT_TRUE(direct.ok());
  PatternSet expected = std::move(direct).value();

  auto fp_old =
      MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kFpGrowth), db, p.xi_old);
  ASSERT_TRUE(fp_old.ok());

  for (CompressionStrategy strategy :
       {CompressionStrategy::kMcp, CompressionStrategy::kMlp}) {
    for (MatcherKind matcher :
         {MatcherKind::kLinear, MatcherKind::kInvertedIndex}) {
      auto cdb = CompressDatabase(db, *fp_old, {strategy, matcher});
      ASSERT_TRUE(cdb.ok());
      for (RecycleAlgo algo :
           {RecycleAlgo::kNaive, RecycleAlgo::kHMine, RecycleAlgo::kFpGrowth,
            RecycleAlgo::kTreeProjection}) {
        SCOPED_TRACE(testing::Message()
                     << core::CompressionStrategyName(strategy) << "/"
                     << core::MatcherKindName(matcher) << "/"
                     << RecycleAlgoName(algo));
        auto got =
            MinePatterns(*core::CreateCompressedMiner(algo), *cdb, p.xi_new);
        ASSERT_TRUE(got.ok());
        PatternSet gs = std::move(got).value();
        EXPECT_TRUE(PatternSet::Equal(&expected, &gs))
            << "missing: " << PatternSet::Difference(&expected, &gs).size()
            << " extra: " << PatternSet::Difference(&gs, &expected).size();
      }
    }
  }
}

TEST_P(PipelineSweepTest, MemoryLimitedMatchesUnlimited) {
  const SweepParam& p = GetParam();
  const TransactionDb db = MakeDbForParam();

  auto unlimited =
      MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kHMine), db, p.xi_new);
  ASSERT_TRUE(unlimited.ok());
  PatternSet expected = std::move(unlimited).value();

  // A budget derived from the seed: sometimes tiny, sometimes ample.
  const size_t budget = (p.seed % 3 == 0)   ? size_t{1} << 10
                        : (p.seed % 3 == 1) ? size_t{64} << 10
                                            : SIZE_MAX;
  auto limited = fpm::MineHMineMemoryLimited(db, p.xi_new, budget, TempDir());
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  PatternSet got = std::move(limited).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got));

  auto fp_old =
      MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kFpGrowth), db, p.xi_old);
  ASSERT_TRUE(fp_old.ok());
  auto cdb = CompressDatabase(
      db, *fp_old, {CompressionStrategy::kMcp, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());
  auto rec_limited =
      core::MineRecycleHMMemoryLimited(*cdb, p.xi_new, budget, TempDir());
  ASSERT_TRUE(rec_limited.ok()) << rec_limited.status().ToString();
  PatternSet got2 = std::move(rec_limited).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &got2));
}

INSTANTIATE_TEST_SUITE_P(
    Sparse, PipelineSweepTest,
    testing::Values(SweepParam{301, false, 50, 18},
                    SweepParam{302, false, 35, 10},
                    SweepParam{303, false, 80, 25},
                    SweepParam{304, false, 40, 6},
                    SweepParam{305, false, 25, 12}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    Dense, PipelineSweepTest,
    testing::Values(SweepParam{311, true, 250, 160},
                    SweepParam{312, true, 220, 140},
                    SweepParam{313, true, 270, 120}),
    ParamName);

class LosslessSweepTest : public testing::TestWithParam<uint64_t> {};

TEST_P(LosslessSweepTest, CompressDecompressRoundTrip) {
  const uint64_t seed = GetParam();
  const TransactionDb db = seed % 2 == 0
                               ? testutil::RandomDb(seed, 250, 35, 5.5)
                               : testutil::RandomDenseDb(seed, 200, 8, 4);
  auto fp = MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kEclat), db,
                         seed % 2 == 0 ? 20 : 120);
  ASSERT_TRUE(fp.ok());
  for (CompressionStrategy strategy :
       {CompressionStrategy::kMcp, CompressionStrategy::kMlp}) {
    auto cdb = CompressDatabase(db, *fp, {strategy, MatcherKind::kAuto});
    ASSERT_TRUE(cdb.ok());
    ASSERT_EQ(cdb->NumTuples(), db.NumTransactions());
    const TransactionDb round = cdb->Decompress();
    for (uint64_t m = 0; m < cdb->NumTuples(); ++m) {
      const auto got = round.Transaction(static_cast<fpm::Tid>(m));
      const auto want = db.Transaction(cdb->MemberTid(m));
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end()));
    }
    // Item supports survive compression (the F-list shortcut).
    EXPECT_EQ(cdb->CountItemSupports(db.ItemUniverseSize()),
              db.CountItemSupports());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LosslessSweepTest,
                         testing::Range<uint64_t>(400, 412));

}  // namespace
}  // namespace gogreen
