// Interactive exploration scenario (the introduction's motivating use
// case): an analyst working over a synthetic market-basket dataset keeps
// refining the mining constraints — lowering the support when results are
// too sparse, raising it or adding constraints when they are too noisy.
// The MiningService transparently picks the cheapest correct route per
// round (exact / filter-down / recycle / scratch) and this example prints
// what it did.
//
// Build & run:  ./build/examples/interactive_explorer

#include <cstdio>

#include "data/quest_gen.h"
#include "fpm/constraints.h"
#include "fpm/miner.h"
#include "serve/mining_service.h"

namespace {

void Report(const char* request, const gogreen::serve::ServeStats& st) {
  std::printf("%-44s -> %6llu patterns | route=%-11s %.3fs", request,
              static_cast<unsigned long long>(st.patterns_returned),
              gogreen::core::SeedRouteName(st.route), st.seconds);
  if (st.route == gogreen::core::SeedRoute::kRecycle) {
    std::printf(" compress=%.3fs ratio=%.2f", st.compress_seconds,
                st.compression_ratio);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using gogreen::fpm::AbsoluteSupport;
  using gogreen::fpm::ConstraintSet;
  using gogreen::fpm::MineRequest;
  using gogreen::serve::MiningService;
  using gogreen::serve::ServeStats;

  // A synthetic "retail basket" dataset: 100k baskets over 5k products.
  gogreen::data::QuestConfig cfg;
  cfg.num_transactions = 100000;
  cfg.avg_transaction_len = 12.0;
  cfg.num_items = 5000;
  cfg.num_patterns = 200;
  cfg.avg_pattern_len = 5.0;
  cfg.max_pattern_len = 9;
  cfg.weight_skew = 2.0;
  cfg.corruption_mean = 0.2;
  cfg.seed = 7;
  auto db = gogreen::data::GenerateQuest(cfg);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset: %zu baskets, avg %.1f items\n\n",
              db->NumTransactions(), db->AvgLength());

  MiningService service(std::move(db).value(), "baskets");
  const size_t n = service.db().NumTransactions();
  ServeStats st;

  // Round 1: a first look at 5% support. (Scratch.)
  if (!service.Mine(MineRequest::At(AbsoluteSupport(0.05, n)), &st).ok()) {
    return 1;
  }
  Report("mine at support 5%", st);

  // Round 2: too few results -> relax to 2%. (Recycled!)
  if (!service.Mine(MineRequest::At(AbsoluteSupport(0.02, n)), &st).ok()) {
    return 1;
  }
  Report("relax support to 2%", st);

  // Round 3: too many -> tighten back to 3%. (Filtered from the 2% set.)
  if (!service.Mine(MineRequest::At(AbsoluteSupport(0.03, n)), &st).ok()) {
    return 1;
  }
  Report("tighten support to 3%", st);

  // Round 4: only long associations, at least 3 items. (The cached 3% set,
  // filtered.)
  ConstraintSet c4(AbsoluteSupport(0.03, n));
  c4.Add(gogreen::fpm::MakeMinLength(3));
  MineRequest r4;
  r4.constraints = &c4;
  if (!service.Mine(r4, &st).ok()) return 1;
  Report("add constraint |X| >= 3", st);

  // Round 5: relax support once more with the constraint kept. (Recycled.)
  ConstraintSet c5(AbsoluteSupport(0.01, n));
  c5.Add(gogreen::fpm::MakeMinLength(3));
  MineRequest r5;
  r5.constraints = &c5;
  auto result = service.Mine(r5, &st);
  if (!result.ok()) return 1;
  Report("relax support to 1%, keep |X| >= 3", st);

  // Show a few of the final long patterns.
  std::printf("\nsample results:\n");
  size_t shown = 0;
  for (const auto& p : result->patterns) {
    if (p.size() >= 4 && shown < 5) {
      std::printf("  %s\n", p.ToString().c_str());
      ++shown;
    }
  }
  return 0;
}
