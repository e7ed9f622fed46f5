#include "core/compressed_miner.h"

#include "check/check_db.h"
#include "core/recycle_fp.h"
#include "core/recycle_hmine.h"
#include "core/recycle_tp.h"
#include "core/rp_mine.h"
#include "util/logging.h"

namespace gogreen::core {

Result<fpm::MineResult> CompressedMiner::Mine(const CompressedDb& cdb,
                                              const fpm::MineRequest& request) {
  return fpm::RunMine(
      name(), request, &stats_, &run_ctx_, [&](uint64_t min_support) {
        const fpm::FList flist = fpm::FList::FromCounts(
            cdb.CountItemSupports(cdb.ItemUniverseSize()), min_support);
        if (check::ValidationEnabled()) {
          GOGREEN_VALIDATE_OR_DIE(check::ValidateCompressedDb(cdb, nullptr));
          GOGREEN_VALIDATE_OR_DIE(check::ValidateFList(flist, min_support));
        }
        if (flist.empty()) return fpm::PatternSet();
        return MineImpl(SliceDb::Build(cdb, flist), flist, min_support);
      });
}

std::unique_ptr<CompressedMiner> CreateCompressedMiner(RecycleAlgo algo) {
  switch (algo) {
    case RecycleAlgo::kNaive:
      return std::make_unique<RpMineMiner>();
    case RecycleAlgo::kHMine:
      return std::make_unique<RecycleHMineMiner>();
    case RecycleAlgo::kFpGrowth:
      return std::make_unique<RecycleFpMiner>();
    case RecycleAlgo::kTreeProjection:
      return std::make_unique<RecycleTpMiner>();
  }
  GOGREEN_CHECK(false) << "unknown RecycleAlgo";
  return nullptr;
}

const char* RecycleAlgoName(RecycleAlgo algo) {
  switch (algo) {
    case RecycleAlgo::kNaive:
      return "rp-mine";
    case RecycleAlgo::kHMine:
      return "recycle-hm";
    case RecycleAlgo::kFpGrowth:
      return "recycle-fp";
    case RecycleAlgo::kTreeProjection:
      return "recycle-tp";
  }
  return "?";
}

}  // namespace gogreen::core
