#include "core/compressed_miner.h"

#include <utility>

#include "core/recycle_fp.h"
#include "core/recycle_hmine.h"
#include "core/recycle_tp.h"
#include "core/rp_mine.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gogreen::core {

Result<fpm::MineResult> CompressedMiner::Mine(const CompressedDb& cdb,
                                              const fpm::MineRequest& request) {
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t minsup,
                           request.EffectiveMinSupport());
  GOGREEN_TRACE_SPAN("run.governor");
  const ThreadPool::ScopedThreads scoped_threads(request.threads);
  run_ctx_ = request.run_context;  // Bound for this call only.
  Result<fpm::PatternSet> mined = MineImpl(cdb, minsup);
  run_ctx_ = nullptr;
  return fpm::FinishMine(std::move(mined), minsup, request, stats_);
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
