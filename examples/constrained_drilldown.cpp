// Constrained mining scenario (Section 2's framing): an analyst mines a
// synthetic product-basket dataset under a price budget and length limits,
// comparing constraint *pushdown* (anti-monotone pruning during the search)
// against complete mining + filtering — and then recycles patterns across a
// constraint relaxation.
//
// Build & run:  ./build/examples/constrained_drilldown

#include <cstdio>

#include "core/constrained_mine.h"
#include "data/quest_gen.h"
#include "fpm/constraints.h"
#include "fpm/miner.h"
#include "serve/mining_service.h"
#include "util/timer.h"

int main() {
  using gogreen::Timer;
  using gogreen::fpm::ConstraintSet;
  using gogreen::fpm::MakeMaxLength;
  using gogreen::fpm::MakeMaxSum;
  using gogreen::fpm::MineRequest;

  // A basket dataset over 2000 products with synthetic prices: product id
  // modulo 50, in dollars (cheap staples get low ids in this fiction).
  gogreen::data::QuestConfig cfg;
  cfg.num_transactions = 80000;
  cfg.avg_transaction_len = 12.0;
  cfg.num_items = 2000;
  cfg.num_patterns = 150;
  cfg.max_pattern_len = 8;
  cfg.weight_skew = 2.0;
  cfg.corruption_mean = 0.25;
  cfg.seed = 42;
  auto db_result = gogreen::data::GenerateQuest(cfg);
  if (!db_result.ok()) return 1;
  const gogreen::fpm::TransactionDb db = std::move(db_result).value();
  std::vector<double> prices(cfg.num_items);
  for (size_t i = 0; i < prices.size(); ++i) {
    prices[i] = static_cast<double>(i % 50);
  }

  const uint64_t minsup =
      gogreen::fpm::AbsoluteSupport(0.01, db.NumTransactions());

  // Query: bundles under a $60 total price, at most 4 products.
  ConstraintSet constraints(minsup);
  constraints.Add(MakeMaxSum(prices, 60.0));
  constraints.Add(MakeMaxLength(4));
  std::printf("query: %s\n\n", constraints.Describe().c_str());

  // Path 1: complete mining + filter.
  Timer t1;
  auto complete = gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kHMine)
                      ->Mine(db, MineRequest::At(minsup));
  if (!complete.ok()) return 1;
  const auto filtered = constraints.Filter(complete->patterns);
  const double filter_secs = t1.ElapsedSeconds();

  // Path 2: pushdown — anti-monotone constraints prune the search.
  Timer t2;
  gogreen::fpm::MiningStats pushdown_stats;
  auto pushed = gogreen::core::MineConstrained(db, constraints,
                                               &pushdown_stats);
  if (!pushed.ok()) return 1;
  const double pushdown_secs = t2.ElapsedSeconds();

  std::printf("complete+filter: %6zu patterns in %.3fs (complete set %zu)\n",
              filtered.size(), filter_secs, complete->patterns.size());
  std::printf("pushdown:        %6zu patterns in %.3fs "
              "(%.1fx, %llu item occurrences scanned)\n",
              pushed->size(), pushdown_secs,
              pushdown_secs > 0 ? filter_secs / pushdown_secs : 0.0,
              static_cast<unsigned long long>(
                  pushdown_stats.items_scanned));
  if (pushed->size() != filtered.size()) {
    std::fprintf(stderr, "MISMATCH between pushdown and filter results\n");
    return 2;
  }

  // The iterative step: the analyst relaxes the budget and the support.
  // The service recycles the support-complete set it cached for round 1.
  gogreen::serve::MiningService service(db, "baskets");
  ConstraintSet round1(minsup);
  round1.Add(MakeMaxSum(prices, 60.0));
  MineRequest request1;
  request1.constraints = &round1;
  if (!service.Mine(request1).ok()) return 1;

  ConstraintSet round2(
      gogreen::fpm::AbsoluteSupport(0.004, db.NumTransactions()));
  round2.Add(MakeMaxSum(prices, 120.0));
  MineRequest request2;
  request2.constraints = &round2;
  gogreen::serve::ServeStats st;
  auto relaxed = service.Mine(request2, &st);
  if (!relaxed.ok()) return 1;
  std::printf("\nrelaxed budget+support via the service: %zu patterns in "
              "%.3fs (route=%s)\n",
              relaxed->patterns.size(), st.seconds,
              gogreen::core::SeedRouteName(st.route));
  return 0;
}
