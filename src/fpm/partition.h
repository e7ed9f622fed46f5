// Disk-backed parallel projection for memory-limited mining (Section 5.3).
//
// When the in-memory structures would exceed the memory budget, the ranked
// database is partitioned on disk: every transaction is written to the
// spill file of *each* frequent item it contains (parallel projection, the
// variant the paper adopts over partition-based projection), projected to
// the item's suffix. Each partition is then mined independently — loading
// it whole if it fits the budget, or recursively partitioning it again.
//
// Lock-discipline audit (DESIGN.md §15): lock-free by construction — the
// spill files are run-private (unique spill ids from one atomic counter)
// and each partition is owned by a single mining pass, so there is no
// shared mutable state to guard. Checked by the thread-safety build.

#ifndef GOGREEN_FPM_PARTITION_H_
#define GOGREEN_FPM_PARTITION_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fpm/flist.h"
#include "fpm/miner.h"
#include "util/status.h"

namespace gogreen::fpm {

/// Estimated bytes of the in-memory H-Mine structures for a projected
/// database of `total_items` rank occurrences in `num_rows` rows over a
/// `flist_items`-item F-list. The model mirrors what the implementation
/// actually allocates: the CSR row storage, the suffix queues (one entry
/// per occurrence at the deepest level), and the per-item header scratch.
size_t EstimateHMineMemory(size_t total_items, size_t num_rows,
                           size_t flist_items);

/// Writes rank-encoded rows into one spill file per rank.
/// Format per record: uint32 length followed by that many uint32 ranks.
/// Destruction closes and removes every file the writer created, so spill
/// files cannot leak on any exit path.
class SpillWriter {
 public:
  /// Files are created lazily as `dir`/`stem`.<rank>.spill.
  SpillWriter(std::string dir, std::string stem, size_t num_ranks);
  ~SpillWriter() { Cleanup(); }

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Appends one row to rank r's partition.
  Status Append(Rank r, std::span<const Rank> row);

  /// Flushes and closes all partitions. Must be called before reading.
  Status Finish();

  /// Path of rank r's partition (may not exist if nothing was appended).
  std::string PathOf(Rank r) const;

  /// Ranks that received at least one row.
  const std::vector<Rank>& used_ranks() const { return used_; }

  /// Deletes all created files now (idempotent; the destructor does it
  /// too).
  void Cleanup();

 private:
  std::string dir_;
  std::string stem_;
  std::vector<std::FILE*> files_;
  std::vector<Rank> used_;
};

/// Loads a whole spill partition. Returns an empty vector for a missing
/// file (a rank that never received rows).
Result<std::vector<std::vector<Rank>>> ReadSpill(const std::string& path);

/// Memory-limited H-Mine (Section 5.3): behaves exactly like HMineMiner but
/// keeps its in-memory structures under `memory_limit` bytes by spilling
/// first-level projections to `temp_dir` and mining them one at a time
/// (recursively partitioning any that still exceed the budget).
Result<PatternSet> MineHMineMemoryLimited(const TransactionDb& db,
                                          uint64_t min_support,
                                          size_t memory_limit,
                                          const std::string& temp_dir,
                                          MiningStats* stats = nullptr);

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_PARTITION_H_
