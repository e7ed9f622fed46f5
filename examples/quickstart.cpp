// Quickstart: the recycling workflow end to end on the paper's example
// database (Table 1). Mines at xi_old = 3, compresses the database with the
// discovered patterns (Table 2), then mines the compressed database at the
// relaxed xi_new = 2 — and shows that the result matches direct mining.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "fpm/miner.h"
#include "fpm/transaction_db.h"

int main() {
  using namespace gogreen;  // NOLINT(build/namespaces) — example brevity.

  // The paper's Table 1 database; items a..i are encoded as 0..8.
  constexpr fpm::ItemId a = 0, b = 1, c = 2, d = 3, e = 4, f = 5, g = 6,
                        h = 7, i = 8;
  fpm::TransactionDb db;
  db.AddTransaction({a, c, d, e, f, g});  // tuple 100
  db.AddTransaction({b, c, d, f, g});     // tuple 200
  db.AddTransaction({c, e, f, g});        // tuple 300
  db.AddTransaction({a, c, e, i});        // tuple 400
  db.AddTransaction({a, e, h});           // tuple 500

  // Round 1: mine at xi_old = 3 with any substrate miner.
  auto miner = fpm::CreateMiner(fpm::MinerKind::kHMine);
  auto mined = miner->Mine(db, fpm::MineRequest::At(3));
  if (!mined.ok()) {
    std::fprintf(stderr, "mine failed: %s\n",
                 mined.status().ToString().c_str());
    return 1;
  }
  const fpm::PatternSet& fp_old = mined->patterns;
  std::printf("patterns at xi_old=3:\n%s", fp_old.ToString().c_str());

  // Phase 1: compress the database with the recycled patterns (MCP).
  core::CompressionStats stats;
  auto cdb = core::CompressDatabase(
      db, fp_old,
      {core::CompressionStrategy::kMcp, core::MatcherKind::kAuto}, &stats);
  if (!cdb.ok()) return 1;
  std::printf("\ncompressed: %zu groups, ratio=%.2f\n", cdb->NumGroups(),
              stats.Ratio());
  for (core::GroupId g2 = 0; g2 < cdb->NumGroups(); ++g2) {
    const auto view = cdb->Group(g2);
    std::printf("  group %u: pattern size %zu, %llu tuples\n", g2,
                view.pattern.size(),
                static_cast<unsigned long long>(view.count));
  }

  // Phase 2: mine the compressed database at the relaxed xi_new = 2.
  auto recycler = core::CreateCompressedMiner(core::RecycleAlgo::kHMine);
  auto fp_new = recycler->Mine(*cdb, fpm::MineRequest::At(2));
  if (!fp_new.ok()) return 1;

  // Cross-check against direct mining.
  auto direct = fpm::CreateMiner(fpm::MinerKind::kFpGrowth)
                    ->Mine(db, fpm::MineRequest::At(2));
  if (!direct.ok()) return 1;
  const bool same =
      fpm::PatternSet::Equal(&fp_new->patterns, &direct->patterns);
  std::printf("\nxi_new=2: %zu patterns via recycling, %zu via direct "
              "mining -> %s\n",
              fp_new->patterns.size(), direct->patterns.size(),
              same ? "identical" : "MISMATCH");
  return same ? 0 : 2;
}
