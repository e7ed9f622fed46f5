// The pattern store: a bounded, byte-accounted cache of complete pattern
// sets keyed by (dataset, constraint fingerprint, min_support), with
// optional memoized compressed images. This is the serving-layer shape of
// the paper's multi-user story (Section 2): patterns one query mined are the
// seeds later queries recycle, so keeping them around — within a budget —
// turns the recycling speedups from a per-session trick into a service
// property.
//
// Values are handed out as shared_ptr-to-const: eviction drops the store's
// reference, never a reader's. The store is lock-striped: entries hash to
// one of 8 shards (each a mutex + LRU list), so lookups on different keys
// never contend. Byte accounting lives in one global atomic ledger with a
// reserve-before-insert protocol — bytes are charged by a CAS that only
// succeeds while the total stays under the budget, so `bytes_in_use()`
// never exceeds the byte_budget at any observable instant, even mid-insert
// under concurrency. Eviction preserves the global LRU order across shards
// via per-entry recency stamps from a shared clock: the globally
// least-recently-used victim goes first (memoized compressed images before
// whole pattern sets; images are cheap to rebuild), and an entry that alone
// exceeds the budget is rejected outright.

#ifndef GOGREEN_SERVE_PATTERN_STORE_H_
#define GOGREEN_SERVE_PATTERN_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "core/compressed_db.h"
#include "core/seed_selection.h"
#include "fpm/pattern_set.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace gogreen::serve {

/// Identity of a cached complete pattern set. `constraint_fingerprint` is
/// ConstraintSet::Fingerprint() — "" for support-only (unconstrained) sets,
/// which are the ones recycling and filter-down routes seed from.
struct StoreKey {
  std::string dataset_id;
  std::string constraint_fingerprint;
  uint64_t min_support = 0;

  friend bool operator==(const StoreKey&, const StoreKey&) = default;
  std::string ToString() const;
};

/// Aggregate store counters, for `store` introspection and tests.
struct StoreStats {
  size_t entries = 0;
  size_t compressed_images = 0;
  size_t bytes_in_use = 0;
  size_t byte_budget = 0;
  uint64_t evictions = 0;       ///< Whole entries dropped to make room.
  uint64_t image_evictions = 0; ///< Compressed images dropped to make room.
};

/// Bounded, sharded LRU cache of complete pattern sets. Thread-safe;
/// lookups bump recency. See the file comment for the eviction and
/// budget contracts.
class PatternStore {
 public:
  struct Options {
    /// Hard ceiling on the summed cost of cached pattern sets + compressed
    /// images. The store never holds more than this many accounted bytes.
    size_t byte_budget = size_t{64} << 20;
  };

  PatternStore();  ///< Default Options.
  explicit PatternStore(Options options);

  /// Inserts (or replaces) the complete set for `key`, evicting older
  /// entries as needed. Returns false — and caches nothing — when the set
  /// alone costs more than the byte budget. `num_transactions` is the |DB|
  /// the supports refer to; it travels with the entry into persistence.
  bool Put(const StoreKey& key, fpm::PatternSet patterns,
           uint64_t num_transactions);

  /// Memoizes the compressed image built from `key`'s pattern set (shared:
  /// the caller typically keeps mining from the same image). A miss (no
  /// such entry) or an over-budget image is a silent no-op: images are an
  /// optimization, never load-bearing.
  void PutCompressed(const StoreKey& key,
                     std::shared_ptr<const core::CompressedDb> cdb);

  /// The cached set for `key`, or null. Bumps recency.
  std::shared_ptr<const fpm::PatternSet> Get(const StoreKey& key);

  /// The memoized compressed image for `key`, or null. Bumps recency.
  std::shared_ptr<const core::CompressedDb> GetCompressed(const StoreKey& key);

  /// Number of transactions recorded with the entry (0 when absent).
  uint64_t NumTransactionsOf(const StoreKey& key) const;

  /// Seed candidates among the entries of (dataset_id, fingerprint), tagged
  /// with their min_support (tag == min_support), ready for
  /// core::SelectSeed. Does not bump recency.
  std::vector<core::SeedCandidate> Candidates(
      const std::string& dataset_id, const std::string& fingerprint) const;

  void Clear();

  /// Walks every shard (one lock each) to count entries and images.
  StoreStats stats() const;

  /// StoreStats::evictions and ::image_evictions alone, read from two
  /// atomics without a shard lock: all a per-request delta needs.
  struct Evictions {
    uint64_t entries = 0;
    uint64_t images = 0;
  };
  Evictions evictions() const {
    return {evictions_.load(std::memory_order_relaxed),
            image_evictions_.load(std::memory_order_relaxed)};
  }

  size_t bytes_in_use() const;
  size_t byte_budget() const {
    return budget_.load(std::memory_order_relaxed);
  }

  /// Re-arms the byte budget at runtime. Shrinking below the current usage
  /// evicts globally-LRU victims (images first, then entries) until the
  /// ledger fits the new budget; growing takes effect immediately. The
  /// budget invariant — bytes_in_use() <= byte_budget() at every instant —
  /// holds again once this returns (concurrent inserts racing the shrink
  /// are bounded by whichever budget value their CAS observed).
  void SetByteBudget(size_t byte_budget);

  /// Persists every entry as a pattern file under `dir` (created if
  /// missing), one crash-safe file per entry. Compressed images are not
  /// persisted (they are cheap to rebuild). Returns the first write error.
  Status SaveTo(const std::string& dir) const;

  /// Loads every pattern file under `dir` into the store (normal insertion
  /// rules: eviction applies, oversized entries are skipped). Files that
  /// fail to parse — corrupted, truncated, foreign — are skipped, not
  /// fatal; `*skipped` (optional) counts them.
  Status LoadFrom(const std::string& dir, size_t* skipped = nullptr);

 private:
  struct Entry {
    StoreKey key;
    std::shared_ptr<const fpm::PatternSet> patterns;
    std::shared_ptr<const core::CompressedDb> cdb;  ///< May be null.
    uint64_t num_transactions = 0;
    size_t pattern_bytes = 0;
    size_t cdb_bytes = 0;
    /// Global recency stamp (bigger = more recently used). Eviction picks
    /// the smallest stamp across all shards, preserving the global LRU
    /// order the single-mutex store had.
    uint64_t stamp = 0;
  };

  // Each shard: one mutex over one LRU list (most-recent first).
  using EntryList = std::list<Entry>;
  struct Shard {
    mutable Mutex mu;
    EntryList entries GUARDED_BY(mu);
  };

  /// Scoped shard lock, the only way the store takes a shard mutex.
  /// Counts `serve.shard_contention` when the lock is not immediately
  /// available: the miss is recorded inside the constructor's TRY_ACQUIRE
  /// path, strictly before the blocking lock(), so a miss can never be
  /// counted while the lock is actually held.
  class SCOPED_CAPABILITY ShardLock {
   public:
    explicit ShardLock(const Shard& shard) ACQUIRE(shard.mu);
    ~ShardLock() RELEASE();
    ShardLock(const ShardLock&) = delete;
    ShardLock& operator=(const ShardLock&) = delete;

   private:
    const Shard& shard_;
  };

  Shard& ShardOf(const StoreKey& key) const;

  static EntryList::iterator FindInShard(Shard& shard, const StoreKey& key)
      REQUIRES(shard.mu);
  void TouchLocked(Shard& shard, EntryList::iterator it) REQUIRES(shard.mu);
  void DropEntryLocked(Shard& shard, EntryList::iterator it)
      REQUIRES(shard.mu);

  /// Charges `cost` bytes against the global ledger, evicting globally-LRU
  /// victims (images first, then whole entries; `keep` survives) until the
  /// CAS succeeds. Returns false — with nothing charged — when eviction
  /// cannot make room.
  ///
  /// Lock-ordering contract (DESIGN.md §15): the ledger `bytes_` is an
  /// atomic, never a lock, so it is by construction never "held" across a
  /// shard lock; and the eviction scan below takes one ShardLock at a
  /// time (lexically scoped per loop iteration — the analyzer cannot name
  /// a dynamically-indexed shard mutex in EXCLUDES, so the single-lock
  /// rule is enforced by ShardLock being the only lock path plus the
  /// negative compile tests).
  bool ReserveBytes(size_t cost, const StoreKey* keep);
  bool EvictOneImage(const StoreKey* keep);
  bool EvictOneEntry(const StoreKey* keep);

  uint64_t NextStamp() { return 1 + clock_.fetch_add(1); }

  /// Lock stripes; keys hash across them.
  static constexpr size_t kShards = 8;

  /// Live byte budget; starts at Options::byte_budget, re-armed by
  /// SetByteBudget. Atomic so the ReserveBytes CAS loop and concurrent
  /// readers see one coherent value.
  std::atomic<size_t> budget_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global byte ledger: the sum of live entry costs plus in-flight
  /// reservations. Only ever grows via the budget-checked CAS in
  /// ReserveBytes, so it can never exceed the byte budget.
  std::atomic<size_t> bytes_{0};
  std::atomic<uint64_t> clock_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> image_evictions_{0};
};

/// Cost model used for the store's accounting, exposed for tests.
size_t PatternSetCost(const fpm::PatternSet& fp);

}  // namespace gogreen::serve

#endif  // GOGREEN_SERVE_PATTERN_STORE_H_
