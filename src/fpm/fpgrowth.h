// FP-growth (Han, Pei, Yin — SIGMOD'00): mining without candidate generation
// over a frequent-pattern tree (prefix tree + header table), with the
// single-path shortcut for conditional trees that degenerate to one branch.

#ifndef GOGREEN_FPM_FPGROWTH_H_
#define GOGREEN_FPM_FPGROWTH_H_

#include <span>
#include <vector>

#include "check/check.h"
#include "fpm/flist.h"
#include "fpm/miner.h"

namespace gogreen::fpm {

class FpGrowthMiner : public FrequentPatternMiner {
 public:
  std::string name() const override { return "fp-growth"; }

 protected:
  PatternSet MineImpl(const TransactionDb& db, uint64_t min_support) override;
};

/// Mines a projected database given as rank rows (each a span of global
/// F-list ranks, ascending) under `prefix`: builds one FP-tree over the
/// rows' occurrences of `frequent` — the ranks frequent in these rows,
/// ascending, as the caller already counted them — and runs FP-growth on
/// it, emitting prefix + X for every frequent non-empty X. `prefix` is
/// restored on return. This is the FP-growth core exposed for H-Mine, which
/// hands it the projections that turn dense (Pei et al.'s switch to
/// FP-trees). `run_ctx` (optional) governs the run and is charged the
/// tree's arena; returns false iff a governed stop abandoned work — the
/// caller owns the frontier bookkeeping.
bool MineRankRowsFP(const std::vector<std::span<const Rank>>& rows,
                    const std::vector<Rank>& frequent, const FList& flist,
                    uint64_t min_support, std::vector<Rank>* prefix,
                    PatternSet* out, MiningStats* stats,
                    RunContext* run_ctx = nullptr);

/// Builds the root FP-tree of `db` at `min_support` and repackages it —
/// nodes in preorder, header chains as node-id lists — as the neutral view
/// check::ValidateFpTree consumes. Empty view when no item is frequent.
/// Debug tooling only: materializes the whole tree a second time.
check::FpTreeView DebugFpTreeView(const TransactionDb& db,
                                  uint64_t min_support);

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_FPGROWTH_H_
