// Multi-user scenario (Section 2: "when there are many users in a data
// mining system, the frequent patterns discovered by one user also provide
// opportunity for the others to recycle"). Three analysts query one
// MiningService; its shared pattern store turns each user's result into
// the next user's seed, so later queries recycle or filter instead of
// mining from scratch.
//
// Build & run:  ./build/examples/multiuser_cache

#include <cstdio>
#include <string>

#include "data/quest_gen.h"
#include "fpm/miner.h"
#include "serve/mining_service.h"
#include "util/timer.h"

namespace {

/// One analyst's query at a support fraction, reported with its route.
gogreen::Result<gogreen::fpm::MineResult> Query(
    gogreen::serve::MiningService& service, const char* user,
    double fraction) {
  gogreen::fpm::MineRequest request = gogreen::fpm::MineRequest::At(
      gogreen::fpm::AbsoluteSupport(fraction,
                                    service.db().NumTransactions()));
  request.tenant = user;
  gogreen::serve::ServeStats st;
  auto result = service.Mine(request, &st);
  if (result.ok()) {
    std::printf("%-7s: support %.1f%% -> %6zu patterns in %.3fs "
                "(route=%s, seed=%llu)\n",
                user, fraction * 100, result->patterns.size(), st.seconds,
                gogreen::core::SeedRouteName(st.route),
                static_cast<unsigned long long>(st.seed_support));
  }
  return result;
}

}  // namespace

int main() {
  using gogreen::Timer;

  gogreen::data::QuestConfig cfg;
  cfg.num_transactions = 150000;
  cfg.avg_transaction_len = 12.0;
  cfg.num_items = 4000;
  cfg.num_patterns = 150;
  cfg.avg_pattern_len = 6.0;
  cfg.max_pattern_len = 9;
  cfg.weight_skew = 2.2;
  cfg.corruption_mean = 0.15;
  cfg.seed = 20040405;
  auto db_result = gogreen::data::GenerateQuest(cfg);
  if (!db_result.ok()) return 1;
  gogreen::serve::MiningService service(std::move(db_result).value(),
                                        "sales-2026-q2");

  // User A explores first (pays the full scratch cost).
  if (!Query(service, "alice", 0.03).ok()) return 1;
  // User B arrives later and wants a deeper cut: recycles A's set.
  Timer tb;
  auto bob = Query(service, "bob", 0.01);
  const double bob_secs = tb.ElapsedSeconds();
  if (!bob.ok()) return 1;
  // User C benefits from B's deeper run: a filter of the cached set.
  if (!Query(service, "carol", 0.02).ok()) return 1;

  // Control: what user B would have paid without the shared store.
  const uint64_t bob_support = gogreen::fpm::AbsoluteSupport(
      0.01, service.db().NumTransactions());
  Timer tl;
  auto lonely = gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kHMine)
                    ->Mine(service.db(),
                           gogreen::fpm::MineRequest::At(bob_support));
  if (!lonely.ok()) return 1;
  const double lonely_secs = tl.ElapsedSeconds();
  std::printf("control: support 1.0%% without sharing -> %.3fs "
              "(bob saved %.1fx)\n",
              lonely_secs, bob_secs > 0 ? lonely_secs / bob_secs : 0.0);

  if (!gogreen::fpm::PatternSet::Equal(&bob->patterns, &lonely->patterns)) {
    std::fprintf(stderr, "MISMATCH between shared and direct results\n");
    return 2;
  }
  return 0;
}
