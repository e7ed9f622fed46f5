// Incremental mining via recycling (the Section 2 extension, detailed in
// the authors' technical report): when the database itself changes between
// mining rounds, the old patterns can no longer be filtered — their supports
// are stale — but they remain excellent *compression units*: compressing
// the new database with them and mining the compressed image yields exact
// results at any threshold, with most of the recycling speedup intact. This
// sidesteps the classic incremental-mining pain points (no negative border
// to store, robust to large or shrinking deltas).

#ifndef GOGREEN_CORE_INCREMENTAL_H_
#define GOGREEN_CORE_INCREMENTAL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "fpm/pattern_set.h"
#include "fpm/transaction_db.h"
#include "util/status.h"

namespace gogreen::core {

/// A mining session over a database that changes between rounds.
class IncrementalSession {
 public:
  explicit IncrementalSession(fpm::TransactionDb db);

  /// Appends one transaction.
  void AddTransaction(std::vector<fpm::ItemId> items);

  /// Appends every transaction of `batch`.
  void AddBatch(const fpm::TransactionDb& batch);

  /// Removes the transactions for which `predicate(tid, items)` is true
  /// (tids are positions in the *current* database; survivors are
  /// renumbered). Returns the number removed.
  size_t RemoveIf(
      const std::function<bool(fpm::Tid, fpm::ItemSpan)>& predicate);

  /// Mines the complete set on the current database. Recycles the most
  /// recent result as compression units when one exists (MCP compression,
  /// Recycle-HM); supports are re-counted exactly, so the answer is exact
  /// even though the cached supports are stale. Without a non-empty cached
  /// set it mines the raw database with H-Mine.
  Result<fpm::PatternSet> Mine(uint64_t min_support);

  const fpm::TransactionDb& db() const { return db_; }
  bool has_cache() const { return has_cache_; }
  /// Whether the last Mine() recycled the previous round's patterns.
  bool last_recycled() const { return last_recycled_; }

 private:
  fpm::TransactionDb db_;
  fpm::PatternSet cached_fp_;
  bool has_cache_ = false;
  bool last_recycled_ = false;
};

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_INCREMENTAL_H_
