// F-list (Definition 3.1 of the paper): frequent items ordered by ascending
// support, plus rank lookups and transaction re-encoding helpers.

#ifndef GOGREEN_FPM_FLIST_H_
#define GOGREEN_FPM_FLIST_H_

#include <cstdint>
#include <vector>

#include "fpm/item.h"
#include "fpm/transaction_db.h"

namespace gogreen::fpm {

/// The frequent list of a database at a given minimum support.
///
/// Items are ordered support-ascending (ties broken by ascending item id for
/// determinism). The *candidate extensions* of the item at rank r are exactly
/// the items at ranks > r (Definition 3.3), so the projection-based miners
/// work on suffixes of rank-sorted transactions.
class FList {
 public:
  FList() = default;

  /// Builds the F-list of `db` at absolute support threshold `min_support`
  /// (an item is frequent iff its support >= min_support).
  static FList Build(const TransactionDb& db, uint64_t min_support);

  /// Builds an F-list directly from per-item support counts.
  static FList FromCounts(const std::vector<uint64_t>& counts,
                          uint64_t min_support);

  /// Number of frequent items.
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// The item at rank r (rank 0 = lowest support).
  ItemId item(Rank r) const { return items_[r]; }

  /// Support of the item at rank r.
  uint64_t support(Rank r) const { return supports_[r]; }

  /// Rank of an item, or kNoRank if the item is not frequent (or out of the
  /// universe this F-list was built over).
  Rank rank(ItemId it) const {
    return it < ranks_.size() ? ranks_[it] : kNoRank;
  }

  bool IsFrequent(ItemId it) const { return rank(it) != kNoRank; }

  /// All frequent items in F-list (support-ascending) order.
  const std::vector<ItemId>& items() const { return items_; }

  /// Re-encodes a canonical transaction into ascending *ranks*, dropping
  /// infrequent items. The result is sorted ascending by rank, i.e. rarest
  /// item first — the order in which projections peel off prefixes.
  std::vector<Rank> EncodeTransaction(ItemSpan items) const;

  /// Appends the rank encoding of `items` to `*out` (no clear), returning the
  /// number of ranks appended. Avoids per-transaction allocation in loaders.
  size_t AppendEncoded(ItemSpan items, std::vector<Rank>* out) const;

  /// Maps a vector of ranks back to item ids (any order preserved).
  std::vector<ItemId> DecodeRanks(const std::vector<Rank>& ranks) const;

 private:
  std::vector<ItemId> items_;      // rank -> item id
  std::vector<uint64_t> supports_;  // rank -> support
  std::vector<Rank> ranks_;        // item id -> rank (kNoRank if infrequent)
};

/// A transaction database re-encoded onto an F-list: every transaction holds
/// the ranks of its frequent items, sorted ascending (support-ascending item
/// order). This is the working representation for all projection miners.
class RankedDb {
 public:
  /// Builds the ranked view of `db` under `flist`. Transactions that contain
  /// no frequent item become empty rows (kept so Tids remain stable).
  static RankedDb Build(const TransactionDb& db, const FList& flist);

  size_t NumTransactions() const { return offsets_.size() - 1; }

  std::span<const Rank> Transaction(Tid t) const {
    return {ranks_.data() + offsets_[t], offsets_[t + 1] - offsets_[t]};
  }

  size_t TotalItems() const { return ranks_.size(); }

  size_t MemoryUsage() const {
    return ranks_.capacity() * sizeof(Rank) +
           offsets_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<Rank> ranks_;
  std::vector<uint64_t> offsets_{0};
};

/// FNV-1a over a row of ranks, for the hash maps that merge identical rows
/// (Tree Projection's transaction bucketing, weighted slices' out rows).
struct RankRowHash {
  size_t operator()(const std::vector<Rank>& row) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (Rank r : row) {
      h ^= r;
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_FLIST_H_
