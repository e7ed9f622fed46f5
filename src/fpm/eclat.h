// Eclat (Zaki, 1997): depth-first mining over a vertical layout. A second
// independently-derived oracle; also the fastest baseline on small dense
// databases thanks to tid-set intersection.
//
// Two vertical representations are provided: sorted tid-lists (cheap when
// supports are small relative to |DB|) and tid-bitmaps (word-parallel
// intersection, superior on dense data where supports approach |DB|).

#ifndef GOGREEN_FPM_ECLAT_H_
#define GOGREEN_FPM_ECLAT_H_

#include "fpm/miner.h"

namespace gogreen::fpm {

/// Vertical representation selection for EclatMiner.
enum class EclatLayout {
  kAuto,      ///< Bitmaps when the frequent items' density warrants them.
  kTidLists,  ///< Always sorted tid-lists.
  kBitsets,   ///< Always tid-bitmaps.
};

class EclatMiner : public FrequentPatternMiner {
 public:
  explicit EclatMiner(EclatLayout layout = EclatLayout::kAuto)
      : layout_(layout) {}

  std::string name() const override { return "eclat"; }

 protected:
  PatternSet MineImpl(const TransactionDb& db, uint64_t min_support) override;

 private:
  EclatLayout layout_;
};

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_ECLAT_H_
