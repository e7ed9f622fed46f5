// Recycle-TP (Section 4.2): the Tree Projection adaptation to compressed
// databases. Keeps Tree Projection's signature mechanism — a pair-count
// matrix per lexicographic-tree node that supplies every child's extension
// supports in one scan — but computes the matrix over slices: the pairs
// internal to a group pattern are counted once per slice with the slice's
// tuple weight, instead of once per member tuple.

#ifndef GOGREEN_CORE_RECYCLE_TP_H_
#define GOGREEN_CORE_RECYCLE_TP_H_

#include "core/compressed_miner.h"

namespace gogreen::core {

class RecycleTpMiner : public CompressedMiner {
 public:
  std::string name() const override { return "recycle-tp"; }

 protected:
  Result<fpm::PatternSet> MineImpl(const CompressedDb& cdb,
                                   uint64_t min_support) override;
};

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_RECYCLE_TP_H_
