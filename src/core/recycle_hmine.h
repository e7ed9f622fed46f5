// Recycle-HM (Section 4.1): the H-Mine adaptation to compressed databases.
//
// The paper's RP-Struct threads group heads and group tails through
// item-links and group-links so that no item data is copied during
// projection. This implementation realizes the same decomposition with
// explicit reference lists: a projected database is a vector of ProjSlice =
// (slice id, pattern-suffix offset, exhausted-member count, tail references
// (member, outlying offset)). Pattern-suffix contributions are counted once
// per ProjSlice — the group-counter saving — and projection moves
// references, never items.

#ifndef GOGREEN_CORE_RECYCLE_HMINE_H_
#define GOGREEN_CORE_RECYCLE_HMINE_H_

#include "core/compressed_miner.h"
#include "core/slice_db.h"

namespace gogreen::core {

class RecycleHMineMiner : public CompressedMiner {
 public:
  std::string name() const override { return "recycle-hm"; }

 protected:
  Result<fpm::PatternSet> MineImpl(const CompressedDb& cdb,
                                   uint64_t min_support) override;
};

/// Mines a slice database in memory with the Recycle-HM core, prefixing
/// every emitted pattern with `prefix_ranks`. Exposed for the
/// memory-limited driver (Section 5.3), which mines disk partitions of
/// slices one at a time. `run_ctx` (optional) governs the run; returns
/// false iff a governed stop abandoned work — the caller owns the frontier
/// bookkeeping when `prefix_ranks` is non-empty.
bool MineSlicesHM(const SliceDb& sdb, const fpm::FList& flist,
                  uint64_t min_support,
                  const std::vector<fpm::Rank>& prefix_ranks,
                  fpm::PatternSet* out, fpm::MiningStats* stats,
                  RunContext* run_ctx = nullptr);

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_RECYCLE_HMINE_H_
