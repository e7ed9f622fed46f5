// Apriori (Agrawal & Srikant, VLDB'94): level-wise candidate generation with
// trie-based subset counting. Slow on dense data by design — it exists as an
// independently-derived reference oracle for the projection-based miners.

#ifndef GOGREEN_FPM_APRIORI_H_
#define GOGREEN_FPM_APRIORI_H_

#include "fpm/miner.h"

namespace gogreen::fpm {

class AprioriMiner : public FrequentPatternMiner {
 public:
  std::string name() const override { return "apriori"; }

 protected:
  Result<PatternSet> MineImpl(const TransactionDb& db,
                              uint64_t min_support) override;
};

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_APRIORI_H_
