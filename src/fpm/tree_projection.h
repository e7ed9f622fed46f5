// Tree Projection (Agarwal, Aggarwal, Prasad — JPDC'01), depth-first
// variant: the lexicographic tree is explored with transactions physically
// projected at every node, and a triangular pair-count matrix at each node
// supplies the supports of all grandchildren in one scan.

#ifndef GOGREEN_FPM_TREE_PROJECTION_H_
#define GOGREEN_FPM_TREE_PROJECTION_H_

#include "fpm/miner.h"

namespace gogreen::fpm {

class TreeProjectionMiner : public FrequentPatternMiner {
 public:
  std::string name() const override { return "tree-projection"; }

 protected:
  Result<PatternSet> MineImpl(const TransactionDb& db,
                              uint64_t min_support) override;
};

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_TREE_PROJECTION_H_
