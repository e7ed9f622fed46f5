#include "fpm/topk.h"

#include <algorithm>

namespace gogreen::fpm {

Result<PatternSet> MineTopK(const TransactionDb& db,
                            const TopKOptions& options) {
  if (options.k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options.min_length == 0) {
    return Status::InvalidArgument("min_length must be >= 1");
  }
  if (db.NumTransactions() == 0) return PatternSet();

  auto miner = CreateMiner(options.miner);

  // Geometric descent: start at half the database size and halve until at
  // least k qualifying patterns exist (or the threshold bottoms out at 1).
  uint64_t threshold =
      std::max<uint64_t>(1, db.NumTransactions() / 2);
  PatternSet qualified;
  while (true) {
    GOGREEN_ASSIGN_OR_RETURN(MineResult mined,
                             miner->Mine(db, MineRequest::At(threshold)));
    qualified = mined.patterns.FilterByMinLength(options.min_length);
    if (qualified.size() >= options.k || threshold == 1) break;
    threshold = threshold > 1 ? threshold / 2 : 1;
  }

  // Keep the k best by (support desc, canonical order).
  std::vector<Pattern>& patterns = qualified.mutable_patterns();
  std::sort(patterns.begin(), patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.support != b.support) return a.support > b.support;
              return PatternLess(a, b);
            });
  if (patterns.size() > options.k) patterns.resize(options.k);
  return qualified;
}

}  // namespace gogreen::fpm
