// Recycle-FP (Section 4.2): the FP-tree adaptation to compressed databases.
//
// The paper treats each group head as a special item at the top of every
// FP-tree branch, so that the tuples of a group share both their pattern
// (via the head) and common outlying prefixes (via the tree). This
// implementation keeps the same sharing structure in flattened form: within
// every projected slice, identical outlying suffixes are merged into one
// weighted row — exactly the multiplicity-sharing an FP-tree's shared paths
// provide — while the group pattern stays factored out in the slice head.

#ifndef GOGREEN_CORE_RECYCLE_FP_H_
#define GOGREEN_CORE_RECYCLE_FP_H_

#include "core/compressed_miner.h"

namespace gogreen::core {

class RecycleFpMiner : public CompressedMiner {
 public:
  std::string name() const override { return "recycle-fp"; }

 protected:
  fpm::PatternSet MineImpl(const SliceDb& sdb, const fpm::FList& flist,
                           uint64_t min_support) override;
};

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_RECYCLE_FP_H_
