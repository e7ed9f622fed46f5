// RP-Mine (Figure 3): the naive recycling miner. Depth-first projected
// mining directly over physically materialized slices, with the
// single-group shortcut of Lemma 3.1.

#ifndef GOGREEN_CORE_RP_MINE_H_
#define GOGREEN_CORE_RP_MINE_H_

#include "core/compressed_miner.h"

namespace gogreen::core {

class RpMineMiner : public CompressedMiner {
 public:
  std::string name() const override { return "rp-mine"; }

 protected:
  fpm::PatternSet MineImpl(const SliceDb& sdb, const fpm::FList& flist,
                           uint64_t min_support) override;
};

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_RP_MINE_H_
