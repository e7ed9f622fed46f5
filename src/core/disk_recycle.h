// Memory-limited recycling (Section 5.3): Algorithm Recycling of Figure 3
// with the EM(D) > M branch. When the slice structures would exceed the
// memory budget, the compressed database is partitioned on disk with
// parallel projection — every slice is written, projected, to the partition
// of each frequent item it touches — and the partitions are mined one at a
// time with the in-memory Recycle-HM core.
//
// Lock-discipline audit (DESIGN.md §15): lock-free by construction — the
// run directory is private to one request (atomic spill-id counter), and
// partitions are mined sequentially within the run; cancellation flows
// through RunContext atomics. Checked by the thread-safety build.

#ifndef GOGREEN_CORE_DISK_RECYCLE_H_
#define GOGREEN_CORE_DISK_RECYCLE_H_

#include <string>

#include "core/compressed_db.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "util/status.h"

namespace gogreen::core {

/// Estimated bytes of the in-memory slice structures for a slice database
/// with the given totals (see SliceDb).
size_t EstimateSliceMineMemory(size_t total_items, size_t total_out_rows,
                               size_t num_slices, size_t flist_items);

/// Memory-limited Recycle-HM: the same pattern set as RecycleHMineMiner
/// but bounded by `memory_limit` bytes of mining structures, spilling
/// projections to a run-private directory under `temp_dir` when necessary.
/// The run directory is removed on every exit path (success, IO error, or
/// governed stop). Spill IO retries transient failures with bounded
/// backoff; see the `spill.*` failpoints in util/failpoint.h. `ctx`
/// (optional) governs the run — on a deadline/budget/cancel breach
/// partitions are abandoned at a boundary and the context is marked
/// incomplete with a sound frontier support (partitions are processed
/// most-frequent-first).
Result<fpm::PatternSet> MineRecycleHMMemoryLimited(
    const CompressedDb& cdb, uint64_t min_support, size_t memory_limit,
    const std::string& temp_dir, fpm::MiningStats* stats = nullptr,
    RunContext* ctx = nullptr);

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_DISK_RECYCLE_H_
