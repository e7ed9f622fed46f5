// Ablation: how many recycled patterns are actually needed? (DESIGN.md §4)
// Compresses each dataset with only the top-K patterns of the MCP utility
// ranking (K = 1, 10, 100, all) and measures Recycle-HM time at the lowest
// xi_new of the sweep. Expectation: a handful of high-utility patterns
// captures most of the saving — the utility function, not pattern volume,
// is what matters (the paper's MCP-vs-MLP conclusion restated).

#include <algorithm>
#include <cstdio>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "core/utility.h"
#include "data/datasets.h"
#include "fpm/miner.h"
#include "util/env.h"
#include "util/timer.h"

int main() {
  using gogreen::Timer;
  using gogreen::core::CompressionStrategy;
  using gogreen::core::MatcherKind;
  using gogreen::core::RecycleAlgo;
  using gogreen::fpm::MineRequest;
  using gogreen::fpm::PatternSet;

  const gogreen::BenchScale scale = gogreen::GetBenchScale();
  std::printf("== Ablation: recycling only the top-K patterns by MCP "
              "utility (Recycle-HM at lowest xi_new, scale=%s) ==\n",
              gogreen::BenchScaleName(scale));
  std::printf("%-13s %8s %10s %10s %10s %10s %12s\n", "dataset", "baseline",
              "K=1", "K=10", "K=100", "K=all", "ratio(K=all)");

  for (gogreen::data::DatasetId id : gogreen::data::kAllDatasets) {
    const auto& spec = gogreen::data::GetDatasetSpec(id);
    auto db = gogreen::data::MakeDataset(id, scale);
    if (!db.ok()) return 1;
    const uint64_t old_sup =
        gogreen::fpm::AbsoluteSupport(spec.xi_old, db->NumTransactions());
    const uint64_t new_sup = gogreen::fpm::AbsoluteSupport(
        spec.xi_new_sweep.back(), db->NumTransactions());

    auto miner = gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kHMine);
    auto fp = miner->Mine(*db, MineRequest::At(old_sup));
    if (!fp.ok()) return 1;
    const std::vector<size_t> ranking = gogreen::core::RankPatternsByUtility(
        fp->patterns, CompressionStrategy::kMcp, db->NumTransactions());

    // Non-recycling baseline.
    Timer timer;
    auto base_miner =
        gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kHMine);
    if (!base_miner->Mine(*db, MineRequest::At(new_sup)).ok()) return 1;
    const double baseline = timer.ElapsedSeconds();

    double times[4] = {0, 0, 0, 0};
    double full_ratio = 1.0;
    const size_t kvals[4] = {1, 10, 100, fp->patterns.size()};
    for (int ki = 0; ki < 4; ++ki) {
      PatternSet top;
      for (size_t i = 0; i < std::min(kvals[ki], ranking.size()); ++i) {
        top.Add(fp->patterns[ranking[i]]);
      }
      gogreen::core::CompressionStats stats;
      auto cdb = gogreen::core::CompressDatabase(
          *db, top, {CompressionStrategy::kMcp, MatcherKind::kAuto},
          &stats);
      if (!cdb.ok()) return 1;
      if (ki == 3) full_ratio = stats.Ratio();
      Timer mine_timer;
      auto rm = gogreen::core::CreateCompressedMiner(RecycleAlgo::kHMine);
      if (!rm->Mine(*cdb, MineRequest::At(new_sup)).ok()) return 1;
      times[ki] = mine_timer.ElapsedSeconds();
    }
    std::printf("%-13s %7.2fs %9.2fs %9.2fs %9.2fs %9.2fs %12.3f\n",
                spec.name, baseline, times[0], times[1], times[2], times[3],
                full_ratio);
    std::fflush(stdout);
  }
  return 0;
}
