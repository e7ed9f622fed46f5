// Tree Projection (Agarwal, Aggarwal, Prasad — JPDC'01), depth-first
// variant: the lexicographic tree is explored with transactions physically
// projected at every node, and a triangular pair-count matrix at each node
// supplies the supports of all grandchildren in one scan.

#ifndef GOGREEN_FPM_TREE_PROJECTION_H_
#define GOGREEN_FPM_TREE_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "fpm/miner.h"
#include "util/logging.h"

namespace gogreen::fpm {

class TreeProjectionMiner : public FrequentPatternMiner {
 public:
  std::string name() const override { return "tree-projection"; }

 protected:
  PatternSet MineImpl(const TransactionDb& db, uint64_t min_support) override;
};

/// Upper-triangular pair-count matrix over a node's n local items: the
/// per-node matrix of Tree Projection, and of Recycle-TP (core/recycle_tp).
class PairMatrix {
 public:
  explicit PairMatrix(size_t n) : n_(n), counts_(n * (n - 1) / 2, 0) {}

  void Add(size_t i, size_t j, uint64_t w) { counts_[Index(i, j)] += w; }
  uint64_t Get(size_t i, size_t j) const { return counts_[Index(i, j)]; }

  /// Heap bytes of the counts, for budget accounting.
  size_t Bytes() const { return counts_.size() * sizeof(uint64_t); }

 private:
  size_t Index(size_t i, size_t j) const {
    GOGREEN_DCHECK(i < j && j < n_);
    // Row-major upper triangle: row i starts after sum of previous rows.
    return i * (2 * n_ - i - 1) / 2 + (j - i - 1);
  }

  size_t n_;
  std::vector<uint64_t> counts_;
};

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_TREE_PROJECTION_H_
