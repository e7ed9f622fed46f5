// H-Mine (Pei, Han, Lu, Nishio, Tang, Yang — ICDM'01): frequent-pattern
// mining over an in-memory hyper-structure. Transactions are re-encoded onto
// the F-list; every projected database is a set of (transaction, offset)
// references into the original arrays — no data is copied during projection,
// matching H-Mine's header-table-with-hyperlinks design.

#ifndef GOGREEN_FPM_HMINE_H_
#define GOGREEN_FPM_HMINE_H_

#include <vector>

#include "check/check.h"
#include "fpm/flist.h"
#include "fpm/miner.h"

namespace gogreen::fpm {

class HMineMiner : public FrequentPatternMiner {
 public:
  std::string name() const override { return "h-mine"; }

 protected:
  Result<PatternSet> MineImpl(const TransactionDb& db,
                              uint64_t min_support) override;
};

/// Mines a projected database given as rank-encoded rows (each ascending in
/// F-list rank). Every emitted pattern is prefixed with `prefix_ranks`.
/// This is the H-Mine core exposed for the memory-limited driver, which
/// mines disk partitions one at a time (Section 5.3). `run_ctx` (optional)
/// governs the run; returns false iff a governed stop abandoned work — the
/// caller owns the frontier bookkeeping when `prefix_ranks` is non-empty.
bool MineRankedRowsHM(const std::vector<std::vector<Rank>>& rows,
                      const FList& flist, uint64_t min_support,
                      const std::vector<Rank>& prefix_ranks, PatternSet* out,
                      MiningStats* stats, RunContext* run_ctx = nullptr);

/// Expands the root level of the H-struct over `ranked` — header table plus
/// fully materialized hyperlink queues — as a neutral view for
/// check::ValidateHStruct and for tests. Debug tooling: costs one full
/// counting + threading pass over the ranked database.
check::HStructView DebugRootHStruct(const RankedDb& ranked, const FList& flist,
                                    uint64_t min_support);

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_HMINE_H_
