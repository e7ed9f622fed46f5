// Ablation: incremental-update strategies (Section 6 comparison). A
// transaction log grows in batches; after every batch the complete pattern
// set is refreshed three ways:
//   scratch   — re-mine the accumulated database (H-Mine);
//   negborder — classic negative-border maintenance (fpm/negative_border);
//   recycle   — compress with the previous round's patterns and re-mine
//               (core/incremental, the paper's approach).
// Expectations: negborder wins when batches barely move the distribution
// (few promotions), but degrades to full-database candidate counting when
// they do — and it must keep the whole database plus the border around;
// recycling stays uniformly close to its best case and also handles
// threshold changes and deletions (not shown here).

#include <cstdio>

#include "core/incremental.h"
#include "data/quest_gen.h"
#include "fpm/miner.h"
#include "fpm/negative_border.h"
#include "util/env.h"
#include "util/timer.h"

namespace {

gogreen::fpm::TransactionDb Batch(int day, size_t rows, uint64_t base_seed) {
  gogreen::data::QuestConfig cfg;
  cfg.num_transactions = rows;
  cfg.avg_transaction_len = 10.0;
  cfg.num_items = 1500;
  cfg.num_patterns = 100;
  cfg.avg_pattern_len = 4.0;
  cfg.max_pattern_len = 8;
  cfg.weight_skew = 2.0;
  cfg.corruption_mean = 0.3;
  cfg.table_seed = base_seed;  // Shared hidden table across batches.
  cfg.seed = base_seed + 1 + static_cast<uint64_t>(day);
  return std::move(gogreen::data::GenerateQuest(cfg)).value();
}

}  // namespace

int main() {
  using gogreen::Timer;

  const gogreen::BenchScale scale = gogreen::GetBenchScale();
  const size_t rows = scale == gogreen::BenchScale::kSmoke ? 2000 : 10000;
  constexpr double kFraction = 0.03;
  constexpr int kDays = 5;

  std::printf("== Ablation: incremental strategies (batches of %zu rows, "
              "support %.0f%%) ==\n",
              rows, kFraction * 100);
  std::printf("%-5s %10s | %10s %10s %10s | %10s %12s\n", "day", "rows",
              "scratch", "negborder", "recycle", "#patterns", "border size");

  gogreen::core::IncrementalSession recycle(Batch(0, rows, 500));
  gogreen::fpm::TransactionDb accumulated = recycle.db();
  gogreen::fpm::NegativeBorderMiner negborder(kFraction);

  for (int day = 0; day <= kDays; ++day) {
    double nb_secs;
    if (day == 0) {
      Timer t_nb;
      if (!negborder.Initialize(accumulated).ok()) return 1;
      nb_secs = t_nb.ElapsedSeconds();
    } else {
      const auto batch = Batch(day, rows, 500);
      recycle.AddBatch(batch);
      for (gogreen::fpm::Tid t = 0; t < batch.NumTransactions(); ++t) {
        accumulated.AddCanonicalTransaction(batch.Transaction(t));
      }
      Timer t_nb;
      if (!negborder.Insert(batch).ok()) return 1;
      nb_secs = t_nb.ElapsedSeconds();
    }
    const uint64_t minsup = gogreen::fpm::AbsoluteSupport(
        kFraction, accumulated.NumTransactions());

    Timer t_scratch;
    auto scratch =
        gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kHMine)
            ->Mine(accumulated, gogreen::fpm::MineRequest::At(minsup));
    const double scratch_secs = t_scratch.ElapsedSeconds();
    if (!scratch.ok()) return 1;

    Timer t_rec;
    auto recycled = recycle.Mine(minsup);
    const double rec_secs = t_rec.ElapsedSeconds();
    if (!recycled.ok()) return 1;

    if (recycled->size() != scratch->patterns.size() ||
        negborder.Frequent().size() != scratch->patterns.size()) {
      std::fprintf(stderr,
                   "MISMATCH day %d: scratch=%zu negborder=%zu recycle=%zu\n",
                   day, scratch->patterns.size(), negborder.Frequent().size(),
                   recycled->size());
      return 2;
    }
    std::printf("%-5d %10zu | %9.3fs %9.3fs %9.3fs | %10zu %12zu\n", day,
                accumulated.NumTransactions(), scratch_secs, nb_secs,
                rec_secs, scratch->patterns.size(), negborder.BorderSize());
    std::fflush(stdout);
  }

  std::printf("negative-border stats: %llu full-DB expansions, %llu "
              "candidates counted over the full database\n",
              static_cast<unsigned long long>(
                  negborder.stats().full_db_expansions),
              static_cast<unsigned long long>(
                  negborder.stats().candidates_counted));
  return 0;
}
