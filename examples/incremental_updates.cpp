// Incremental updates scenario: a transaction log grows by a daily batch;
// each evening the complete pattern set is refreshed. The IncrementalSession
// recycles yesterday's patterns as compression units — exact results, much
// less work than re-mining from scratch, and (unlike negative-border
// incremental miners) it tolerates deletions and threshold changes too.
//
// Build & run:  ./build/examples/incremental_updates

#include <cstdio>

#include "core/incremental.h"
#include "data/quest_gen.h"
#include "fpm/miner.h"
#include "util/timer.h"

namespace {

gogreen::fpm::TransactionDb DayBatch(int day, size_t rows) {
  gogreen::data::QuestConfig cfg;
  cfg.num_transactions = rows;
  cfg.avg_transaction_len = 10.0;
  cfg.num_items = 2000;
  cfg.num_patterns = 120;
  cfg.max_pattern_len = 8;
  cfg.weight_skew = 2.0;
  cfg.corruption_mean = 0.15;
  cfg.table_seed = 777;  // One hidden pattern table shared by every day:
  // the store sells the same products all week.
  cfg.seed = 1000 + static_cast<uint64_t>(day);  // Fresh transactions daily.
  return std::move(gogreen::data::GenerateQuest(cfg)).value();
}

}  // namespace

int main() {
  using gogreen::Timer;
  using gogreen::core::IncrementalSession;

  constexpr double kSupportFraction = 0.01;
  constexpr size_t kDailyRows = 30000;

  // Day 0: bootstrap with the first batch and a full mine.
  IncrementalSession session(DayBatch(0, kDailyRows));

  // The non-recycling control: H-Mine over the session's current data.
  const auto mine_scratch = [&session](uint64_t minsup) {
    return gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kHMine)
        ->Mine(session.db(), gogreen::fpm::MineRequest::At(minsup));
  };

  std::printf("%-5s %10s %12s | %12s %12s | %9s %8s\n", "day", "rows",
              "#patterns", "recycled", "scratch", "speedup", "path");
  for (int day = 0; day <= 6; ++day) {
    if (day > 0) session.AddBatch(DayBatch(day, kDailyRows));
    const uint64_t minsup = gogreen::fpm::AbsoluteSupport(
        kSupportFraction, session.db().NumTransactions());

    Timer t1;
    auto recycled = session.Mine(minsup);
    const double recycled_secs = t1.ElapsedSeconds();
    if (!recycled.ok()) return 1;

    Timer t2;
    auto scratch = mine_scratch(minsup);
    const double scratch_secs = t2.ElapsedSeconds();
    if (!scratch.ok()) return 1;

    if (!gogreen::fpm::PatternSet::Equal(&*recycled, &scratch->patterns)) {
      std::fprintf(stderr, "MISMATCH on day %d\n", day);
      return 2;
    }
    std::printf("%-5d %10zu %12zu | %11.3fs %11.3fs | %8.1fx %8s\n", day,
                session.db().NumTransactions(), recycled->size(),
                recycled_secs, scratch_secs,
                recycled_secs > 0 ? scratch_secs / recycled_secs : 0.0,
                session.last_recycled() ? "recycled" : "scratch");
  }

  // Week's end: retention policy deletes the oldest third of the log, and
  // the analyst drops the threshold. Both changes at once — still exact.
  const size_t before = session.db().NumTransactions();
  const size_t cutoff = before / 3;
  session.RemoveIf([cutoff](gogreen::fpm::Tid t, gogreen::fpm::ItemSpan) {
    return t < cutoff;
  });
  const uint64_t low_sup = gogreen::fpm::AbsoluteSupport(
      0.01, session.db().NumTransactions());

  Timer t1;
  auto recycled = session.Mine(low_sup);
  const double recycled_secs = t1.ElapsedSeconds();
  Timer t2;
  auto scratch = mine_scratch(low_sup);
  const double scratch_secs = t2.ElapsedSeconds();
  if (!recycled.ok() || !scratch.ok()) return 1;
  const bool agree =
      gogreen::fpm::PatternSet::Equal(&*recycled, &scratch->patterns);
  std::printf("\nafter deleting %zu rows and halving the threshold:\n",
              cutoff);
  std::printf("  recycled %.3fs vs scratch %.3fs (%.1fx), %zu patterns, "
              "results %s\n",
              recycled_secs, scratch_secs,
              recycled_secs > 0 ? scratch_secs / recycled_secs : 0.0,
              recycled->size(), agree ? "agree" : "DISAGREE");
  return agree ? 0 : 2;
}
