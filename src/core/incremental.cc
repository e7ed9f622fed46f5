#include "core/incremental.h"

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "fpm/miner.h"

namespace gogreen::core {

IncrementalSession::IncrementalSession(fpm::TransactionDb db)
    : db_(std::move(db)) {}

void IncrementalSession::AddTransaction(std::vector<fpm::ItemId> items) {
  db_.AddTransaction(std::move(items));
}

void IncrementalSession::AddBatch(const fpm::TransactionDb& batch) {
  for (fpm::Tid t = 0; t < batch.NumTransactions(); ++t) {
    db_.AddCanonicalTransaction(batch.Transaction(t));
  }
}

size_t IncrementalSession::RemoveIf(
    const std::function<bool(fpm::Tid, fpm::ItemSpan)>& predicate) {
  fpm::TransactionDb survivor;
  survivor.Reserve(db_.NumTransactions(), db_.TotalItems());
  size_t removed = 0;
  for (fpm::Tid t = 0; t < db_.NumTransactions(); ++t) {
    const fpm::ItemSpan row = db_.Transaction(t);
    if (predicate(t, row)) {
      ++removed;
    } else {
      survivor.AddCanonicalTransaction(row);
    }
  }
  db_ = std::move(survivor);
  return removed;
}

Result<fpm::PatternSet> IncrementalSession::Mine(uint64_t min_support) {
  const fpm::MineRequest request = fpm::MineRequest::At(min_support);
  fpm::MineResult result;
  last_recycled_ = !cached_fp_.empty();
  if (!last_recycled_) {
    GOGREEN_ASSIGN_OR_RETURN(
        result, fpm::CreateMiner(fpm::MinerKind::kHMine)->Mine(db_, request));
  } else {
    // Compress the *current* database with the previous round's patterns.
    // Their stale supports only influence the utility ranking; the mined
    // supports come from the actual data.
    GOGREEN_ASSIGN_OR_RETURN(
        const CompressedDb cdb,
        CompressDatabase(db_, cached_fp_,
                         {CompressionStrategy::kMcp, MatcherKind::kAuto}));
    GOGREEN_ASSIGN_OR_RETURN(
        result, CreateCompressedMiner(RecycleAlgo::kHMine)->Mine(cdb, request));
  }
  cached_fp_ = result.patterns;
  has_cache_ = true;
  return std::move(result.patterns);
}

}  // namespace gogreen::core
