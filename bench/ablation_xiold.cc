// Ablation: sensitivity of the recycling benefit to xi_old (Section 5.2,
// observation 1: "a lower initial support will usually give better
// performance of recycling" — more resources spent in the first round mean
// more savings to reuse). Sweeps xi_old above the target xi_new and
// measures Recycle-HM time at the fixed xi_new.

#include <cstdio>

#include "core/compressed_miner.h"
#include "core/compressor.h"
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

  const gogreen::BenchScale scale = gogreen::GetBenchScale();
  std::printf("== Ablation: recycling benefit vs xi_old (Recycle-HM, MCP, "
              "scale=%s) ==\n",
              gogreen::BenchScaleName(scale));

  for (gogreen::data::DatasetId id : gogreen::data::kAllDatasets) {
    const auto& spec = gogreen::data::GetDatasetSpec(id);
    auto db = gogreen::data::MakeDataset(id, scale);
    if (!db.ok()) return 1;
    const double xi_new = spec.xi_new_sweep.back();
    const uint64_t new_sup =
        gogreen::fpm::AbsoluteSupport(xi_new, db->NumTransactions());

    Timer timer;
    auto base = gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kHMine);
    if (!base->Mine(*db, MineRequest::At(new_sup)).ok()) return 1;
    const double baseline = timer.ElapsedSeconds();

    std::printf("%s: xi_new=%.4g%%, non-recycling H-Mine=%.2fs\n", spec.name,
                xi_new * 100, baseline);
    std::printf("  %-9s %10s %12s %12s %10s %9s\n", "xi_old", "#patterns",
                "mine@xi_old", "recycle-HM", "speedup", "ratio");

    // xi_old sweep: from just above xi_new up past the paper's xi_old.
    const double factors[] = {1.5, 2.5, 5.0, 10.0};
    for (const double factor : factors) {
      const double xi_old = xi_new * factor;
      if (xi_old > 1.0) continue;
      const uint64_t old_sup =
          gogreen::fpm::AbsoluteSupport(xi_old, db->NumTransactions());

      Timer old_timer;
      auto old_miner =
          gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kHMine);
      auto fp = old_miner->Mine(*db, MineRequest::At(old_sup));
      if (!fp.ok()) return 1;
      const double old_secs = old_timer.ElapsedSeconds();
      if (fp->patterns.empty()) {
        std::printf("  %-8.4g%% %10zu  (no patterns to recycle)\n",
                    xi_old * 100, fp->patterns.size());
        continue;
      }

      gogreen::core::CompressionStats stats;
      auto cdb = gogreen::core::CompressDatabase(
          *db, fp->patterns, {CompressionStrategy::kMcp, MatcherKind::kAuto},
          &stats);
      if (!cdb.ok()) return 1;

      Timer mine_timer;
      auto rm = gogreen::core::CreateCompressedMiner(RecycleAlgo::kHMine);
      if (!rm->Mine(*cdb, MineRequest::At(new_sup)).ok()) return 1;
      const double recycle_secs = mine_timer.ElapsedSeconds();

      std::printf("  %-8.4g%% %10zu %11.2fs %11.2fs %9.1fx %9.3f\n",
                  xi_old * 100, fp->patterns.size(), old_secs, recycle_secs,
                  recycle_secs > 0 ? baseline / recycle_secs : 0.0,
                  stats.Ratio());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
