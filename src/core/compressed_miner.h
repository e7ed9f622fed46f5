// Interface for miners that operate on a compressed database, plus a
// factory over the paper's adapted algorithms.

#ifndef GOGREEN_CORE_COMPRESSED_MINER_H_
#define GOGREEN_CORE_COMPRESSED_MINER_H_

#include <memory>
#include <string>

#include "core/compressed_db.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "util/status.h"

namespace gogreen::core {

/// Mines the complete frequent-pattern set of the database a CompressedDb
/// encodes, without decompressing it. The result is identical to mining the
/// original database (the compression is lossless); only the work differs.
class CompressedMiner {
 public:
  virtual ~CompressedMiner() = default;

  /// Algorithm name for reports ("rp-mine", "recycle-hm", ...).
  virtual std::string name() const = 0;

  /// Mines the patterns the request asks for (mirrors
  /// fpm::FrequentPatternMiner::Mine): support, constraints, governor, and
  /// per-request parallelism.
  Result<fpm::MineResult> Mine(const CompressedDb& cdb,
                               const fpm::MineRequest& request);

 protected:
  /// The algorithm: the complete set with support >= min_support (>= 1).
  /// Reads the governor from run_ctx_ and leaves its counters in stats_.
  virtual Result<fpm::PatternSet> MineImpl(const CompressedDb& cdb,
                                           uint64_t min_support) = 0;

  fpm::MiningStats stats_;
  /// Governor of the in-flight Mine call; bound for the span of that call
  /// only (MineImpl reads it, never writes it).
  RunContext* run_ctx_ = nullptr;
};

/// The compressed-database mining algorithms (Sections 3.3 and 4).
enum class RecycleAlgo {
  kNaive,           ///< RP-Mine: physical slice projection (Figure 3).
  kHMine,           ///< Recycle-HM: pseudo-projection, H-Mine style (§4.1).
  kFpGrowth,        ///< Recycle-FP: shared-suffix (prefix-tree) slices (§4.2).
  kTreeProjection,  ///< Recycle-TP: pair-matrix pruning over slices (§4.2).
};

std::unique_ptr<CompressedMiner> CreateCompressedMiner(RecycleAlgo algo);

const char* RecycleAlgoName(RecycleAlgo algo);

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_COMPRESSED_MINER_H_
