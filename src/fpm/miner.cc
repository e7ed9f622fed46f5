#include "fpm/miner.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "check/check.h"
#include "fpm/apriori.h"
#include "fpm/eclat.h"
#include "fpm/fpgrowth.h"
#include "fpm/hmine.h"
#include "fpm/tree_projection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gogreen::fpm {

namespace {

/// Flushes a governed run's outcome into the registry: `run.partial`,
/// per-reason stop counters, and the `run.bytes_peak` high-water gauge.
void RecordGovernorOutcome(RunContext* ctx, bool partial) {
  if (ctx == nullptr) return;
  using obs::MetricRegistry;
  static obs::Counter* partials =
      MetricRegistry::Global().GetCounter("run.partial");
  static obs::Counter* cancelled =
      MetricRegistry::Global().GetCounter("run.cancelled");
  static obs::Counter* deadline =
      MetricRegistry::Global().GetCounter("run.deadline_exceeded");
  static obs::Counter* exhausted =
      MetricRegistry::Global().GetCounter("run.memory_exceeded");
  static obs::Gauge* bytes_peak =
      MetricRegistry::Global().GetGauge("run.bytes_peak");
  if (partial) partials->Add(1);
  switch (ctx->stop_reason()) {
    case StopReason::kNone:
      break;
    case StopReason::kCancelled:
      cancelled->Add(1);
      break;
    case StopReason::kDeadlineExceeded:
      deadline->Add(1);
      break;
    case StopReason::kMemoryBudgetExceeded:
      exhausted->Add(1);
      break;
  }
  bytes_peak->UpdateMax(static_cast<int64_t>(ctx->bytes_peak()));
}

}  // namespace

Result<MineResult> FinishMine(Result<PatternSet> mined, uint64_t min_support,
                              const MineRequest& request,
                              const MiningStats& stats) {
  if (!mined.ok()) return mined.status();
  RunContext* ctx = request.run_context;
  MineResult result;
  result.patterns = std::move(mined).value();
  result.frontier_support = min_support;
  if (ctx != nullptr && ctx->incomplete()) {
    result.partial = true;
    result.stop_status = ctx->StopStatus();
    result.frontier_support = std::max(min_support, ctx->frontier_support());
    // Subtrees below the frontier may have been cut mid-emission; dropping
    // everything under the frontier restores exactness (the completed
    // most-frequent-first subtrees contain every pattern at or above it).
    result.patterns = result.patterns.FilterBySupport(result.frontier_support);
  }
  RecordGovernorOutcome(ctx, result.partial);
  // Every cooperatively charged byte must be released by the time a
  // governed run reaches this epilogue (leaked ScopedBytes would starve
  // later runs sharing the budget).
  if (ctx != nullptr) {
    GOGREEN_VALIDATE_OR_DIE(check::ValidateRunContext(*ctx));
  }
  result.stats = stats;
  if (request.constraints != nullptr &&
      request.constraints->NumConstraints() > 0) {
    result.patterns = request.constraints->Filter(result.patterns);
  }
  return result;
}

Result<uint64_t> MineRequest::EffectiveMinSupport() const {
  uint64_t support = min_support;
  if (constraints != nullptr) {
    support = std::max(support, constraints->min_support());
  }
  if (support == 0) {
    return Status::InvalidArgument(
        "MineRequest needs a min_support >= 1 (directly or via constraints)");
  }
  return support;
}

Result<MineResult> FrequentPatternMiner::Mine(const TransactionDb& db,
                                              const MineRequest& request) {
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t minsup,
                           request.EffectiveMinSupport());
  GOGREEN_TRACE_SPAN("run.governor");
  const ThreadPool::ScopedThreads scoped_threads(request.threads);
  run_ctx_ = request.run_context;  // Bound for this call only.
  Result<PatternSet> mined = MineImpl(db, minsup);
  run_ctx_ = nullptr;
  return FinishMine(std::move(mined), minsup, request, stats_);
}

void RecordMiningStats(const MiningStats& stats) {
  using obs::MetricRegistry;
  static obs::Counter* runs =
      MetricRegistry::Global().GetCounter("mine.runs");
  static obs::Counter* items =
      MetricRegistry::Global().GetCounter("mine.items_scanned");
  static obs::Counter* projections =
      MetricRegistry::Global().GetCounter("mine.projections_built");
  static obs::Counter* patterns =
      MetricRegistry::Global().GetCounter("mine.patterns_emitted");
  static obs::Histogram* seconds =
      MetricRegistry::Global().GetHistogram("mine.seconds");
  static obs::Gauge* threads =
      MetricRegistry::Global().GetGauge("mine.threads");
  runs->Add(1);
  threads->Set(static_cast<int64_t>(ThreadPool::GlobalThreads()));
  items->Add(stats.items_scanned);
  projections->Add(stats.projections_built);
  patterns->Add(stats.patterns_emitted);
  seconds->Observe(stats.elapsed_seconds);
}

std::unique_ptr<FrequentPatternMiner> CreateMiner(MinerKind kind) {
  switch (kind) {
    case MinerKind::kApriori:
      return std::make_unique<AprioriMiner>();
    case MinerKind::kEclat:
      return std::make_unique<EclatMiner>();
    case MinerKind::kHMine:
      return std::make_unique<HMineMiner>();
    case MinerKind::kFpGrowth:
      return std::make_unique<FpGrowthMiner>();
    case MinerKind::kTreeProjection:
      return std::make_unique<TreeProjectionMiner>();
  }
  GOGREEN_CHECK(false) << "unknown MinerKind";
  return nullptr;
}

const char* MinerKindName(MinerKind kind) {
  switch (kind) {
    case MinerKind::kApriori:
      return "apriori";
    case MinerKind::kEclat:
      return "eclat";
    case MinerKind::kHMine:
      return "h-mine";
    case MinerKind::kFpGrowth:
      return "fp-growth";
    case MinerKind::kTreeProjection:
      return "tree-projection";
  }
  return "?";
}

uint64_t AbsoluteSupport(double fraction, size_t num_transactions) {
  GOGREEN_CHECK(fraction > 0.0 && fraction <= 1.0)
      << "support fraction out of (0,1]: " << fraction;
  const double raw = fraction * static_cast<double>(num_transactions);
  uint64_t abs = static_cast<uint64_t>(std::ceil(raw - 1e-9));
  if (abs == 0) abs = 1;
  return abs;
}

Result<uint64_t> ResolveSupport(double support, size_t num_transactions) {
  // 2^64: every double in (0, 2^64) converts to uint64_t; NaN fails both
  // comparisons.
  constexpr double kLimit = 18446744073709551616.0;
  if (support > 0.0 && support < kLimit) {
    if (support < 1.0) return AbsoluteSupport(support, num_transactions);
    return static_cast<uint64_t>(support);
  }
  std::ostringstream message;
  message << "expected a positive support below 2^64, got " << support;
  return Status::InvalidArgument(message.str());
}

}  // namespace gogreen::fpm
