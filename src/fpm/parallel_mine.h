// First-level fan-out shared by the projection miners.
//
// Every projection-based miner in the substrate has the same outer shape:
// one root pass discovers the frequent first-level extensions, then each
// extension's projected database is mined independently. The fan-out here
// runs those subtrees on the global ThreadPool, each into a private
// (PatternSet, MiningStats) shard, and merges the shards back in ascending
// extension order — exactly the order a depth-first root loop emits — so
// the result is bit-identical for every thread count, governed or not.
//
// Lock-discipline audit (DESIGN.md §15): this layer holds no mutex of its
// own. Each shard is written by exactly one lane (the ThreadPool lane-
// exclusivity contract) and merged only after the WaitGroup barrier; the
// shared cursor is a relaxed atomic. The thread-safety build verifies the
// layer stays that way — any future guarded state must come through
// util/thread_annotations.h.

#ifndef GOGREEN_FPM_PARALLEL_MINE_H_
#define GOGREEN_FPM_PARALLEL_MINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "util/run_context.h"
#include "util/thread_pool.h"

namespace gogreen::fpm {

/// Private output of one first-level subtree.
struct MineShard {
  PatternSet patterns;
  MiningStats stats;
};

/// The one first-level fan-out. Runs `mine(shard, lane, i)` for each
/// first-level extension i in [0, n) on `pool`, then appends each shard's
/// patterns to `out` and sums its work counters into `stats`, in ascending
/// i order. Callers obtain `pool` from ThreadPool::Global() and hold it
/// across the call (plus any lane-indexed scratch sized from
/// pool->threads()), so a concurrent SetGlobalThreads() can neither destroy
/// the pool mid-run nor desynchronize lane ids from the scratch size.
/// `lane` < pool->threads(); no two concurrent calls share a lane, so
/// lane-indexed scratch contexts need no locking. With a 1-lane pool the
/// caller mines every subtree itself.
///
/// Subtrees are claimed in DESCENDING index order. The F-list is
/// support-ascending, so the most frequent extensions — whose subtrees
/// contain every high-support pattern — are mined first. That order is
/// what makes an early stop of a governed run (`ctx` non-null) sound:
///   - `ctx` is polled between claims, and the caller's wait on the fan-out
///     is deadline-aware (ThreadPool::WaitFor in a poll loop), so a breach
///     trips within one shard boundary.
///   - `mine` returns whether it ran subtree i to completion. After the
///     fan-out, if the contiguously completed subtrees counted from the top
///     do not cover all n and `mark_frontier` is set, the run is marked
///     incomplete on `ctx` with frontier support level_supports[j] + 1,
///     where j is the highest uncompleted index — every pattern with
///     support above that level lives entirely inside the completed top
///     region, so the emitted set filtered to the frontier is exact.
///     `level_supports[i]` is the support of extension i (ascending,
///     F-list order).
/// Nested (non-root) callers pass mark_frontier = false: they report
/// completion through the return value and leave the frontier bookkeeping
/// to their root driver. All shards, complete or not, are merged into `out`
/// (partially mined subtrees still emitted genuine patterns; the outcome
/// filter drops whatever falls below the frontier). With a null `ctx`
/// nothing is polled or marked. Returns true iff every subtree completed.
/// Exceptions from `mine` propagate after all started subtrees finish.
bool MineFirstLevel(
    const std::shared_ptr<ThreadPool>& pool, size_t n,
    const std::function<bool(MineShard* shard, size_t lane, size_t i)>& mine,
    PatternSet* out, MiningStats* stats, RunContext* ctx,
    const std::vector<uint64_t>& level_supports, bool mark_frontier);

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_PARALLEL_MINE_H_
