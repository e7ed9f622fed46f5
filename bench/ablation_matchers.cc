// Ablation: the compressor's pattern-matching strategy (DESIGN.md §4).
// Compares the linear utility-order scan against the inverted-index
// (rarest-item anchor) matcher on all four datasets. Expectation: the
// inverted index wins on sparse data (most patterns share no item with a
// given tuple), the linear scan on dense data (the first few patterns
// cover almost every tuple).

#include <cstdio>

#include "core/compressor.h"
#include "data/datasets.h"
#include "fpm/miner.h"
#include "util/env.h"

int main() {
  using gogreen::core::CompressionStats;
  using gogreen::core::CompressionStrategy;
  using gogreen::core::MatcherKind;

  const gogreen::BenchScale scale = gogreen::GetBenchScale();
  std::printf("== Ablation: compressor matcher (linear vs inverted-index, "
              "MCP, scale=%s) ==\n",
              gogreen::BenchScaleName(scale));
  std::printf("%-13s %10s %12s %14s %10s\n", "dataset", "#patterns",
              "linear", "inverted-idx", "winner");

  for (gogreen::data::DatasetId id : gogreen::data::kAllDatasets) {
    const auto& spec = gogreen::data::GetDatasetSpec(id);
    auto db = gogreen::data::MakeDataset(id, scale);
    if (!db.ok()) return 1;
    const uint64_t old_sup =
        gogreen::fpm::AbsoluteSupport(spec.xi_old, db->NumTransactions());
    auto miner = gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kFpGrowth);
    auto fp = miner->Mine(*db, gogreen::fpm::MineRequest::At(old_sup));
    if (!fp.ok()) return 1;

    CompressionStats linear;
    CompressionStats inverted;
    if (!gogreen::core::CompressDatabase(
             *db, fp->patterns,
             {CompressionStrategy::kMcp, MatcherKind::kLinear}, &linear)
             .ok() ||
        !gogreen::core::CompressDatabase(
             *db, fp->patterns,
             {CompressionStrategy::kMcp, MatcherKind::kInvertedIndex},
             &inverted)
             .ok()) {
      return 1;
    }
    std::printf("%-13s %10zu %11.3fs %13.3fs %10s\n", spec.name,
                fp->patterns.size(), linear.elapsed_seconds,
                inverted.elapsed_seconds,
                linear.elapsed_seconds <= inverted.elapsed_seconds
                    ? "linear"
                    : "inverted");
    std::fflush(stdout);
  }
  return 0;
}
