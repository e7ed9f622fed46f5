// Common interface for frequent-pattern miners plus a factory.

#ifndef GOGREEN_FPM_MINER_H_
#define GOGREEN_FPM_MINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fpm/constraints.h"
#include "fpm/pattern_set.h"
#include "fpm/transaction_db.h"
#include "util/run_context.h"
#include "util/status.h"

namespace gogreen::fpm {

/// Counters describing the work a mining run performed. Used by tests and by
/// the experiment harness to demonstrate where the recycling savings come
/// from (support counting and projection construction, Section 3.1).
struct MiningStats {
  uint64_t patterns_emitted = 0;
  uint64_t projections_built = 0;  ///< Projected databases / conditional trees
  uint64_t items_scanned = 0;      ///< Item occurrences touched while counting
  double elapsed_seconds = 0.0;

  void Reset() { *this = MiningStats(); }
};

/// One mining query, in full. This is the single entry shape shared by
/// FrequentPatternMiner, core::CompressedMiner, serve::MiningService, and
/// the wire protocol's serialized form (net/wire.h). All referenced objects
/// are borrowed: they must outlive the call, and the request itself is a
/// cheap value (copying it never copies a constraint set or a context).
struct MineRequest {
  /// Absolute support threshold (>= 1). When `constraints` also carries a
  /// minimum support, the effective threshold is the maximum of the two —
  /// either field may be left 0 if the other supplies it.
  uint64_t min_support = 0;
  /// Optional non-support constraints, applied as a final filter (the
  /// mined set is support-complete). Not owned.
  const ConstraintSet* constraints = nullptr;
  /// Optional run governor (deadline / memory budget / cancel). Not owned.
  RunContext* run_context = nullptr;
  /// Parallelism for this request: 0 inherits the global pool, any other
  /// value runs the request on a pool of that many lanes (thread-scoped
  /// override, see ThreadPool::ScopedThreads) without touching the global
  /// configuration. The mined set is identical at any count.
  size_t threads = 0;
  /// Serving-layer tenant identity ("" = anonymous/default tenant). Mining
  /// ignores it; serve::AdmissionController keys its token buckets on it
  /// and the wide event reports it.
  std::string tenant;
  /// Milliseconds this request waited in the admission queue before being
  /// dispatched (stamped by the admission layer; 0 when it bypassed the
  /// queue). Observability only — mining ignores it.
  uint64_t queued_ms = 0;

  /// Shorthand for a plain support-only query.
  static MineRequest At(uint64_t support) {
    MineRequest request;
    request.min_support = support;
    return request;
  }

  /// The support the mining run must reach: max of `min_support` and the
  /// constraint set's threshold. InvalidArgument when both are 0.
  Result<uint64_t> EffectiveMinSupport() const;
};

/// Everything a mining call produces: the pattern set, the governed outcome
/// (partial flag + exact frontier), and the work counters of the run. The
/// single result shape of the MineRequest API.
///
/// A partial result is still exact: when a deadline/budget/cancel stops the
/// run early, the governed drivers process first-level subtrees
/// most-frequent-first, so the emitted set filtered to `frontier_support`
/// is precisely the complete frequent set at that (higher) support — the
/// caller can keep it, or recycle it and rerun at a tightened threshold,
/// which is the paper's own loop.
struct [[nodiscard]] MineResult {
  PatternSet patterns;
  /// True when a governor stopped the run before covering the requested
  /// support; `patterns` is then the exact set at `frontier_support`.
  bool partial = false;
  /// Support level `patterns` is complete for (the requested effective
  /// support when !partial, higher when partial). Constraint filtering does
  /// not affect completeness at this level.
  uint64_t frontier_support = 0;
  /// OK when complete; DeadlineExceeded / ResourceExhausted / Cancelled
  /// when partial.
  Status stop_status;
  /// Work counters of this run.
  MiningStats stats;
};

/// The body both miner interfaces' Mine(…, request) share; `mine_impl`
/// is the miner's algorithm at the request's effective support. Binds the
/// request's thread count, and its governor to `*run_ctx` for this call
/// only. Resets `*stats`, runs `mine_impl` inside the `mine.<name>` span,
/// stamps the run's patterns_emitted and elapsed_seconds, and flushes the
/// `mine.*` metrics (`mine.runs`, `mine.items_scanned`,
/// `mine.projections_built`, `mine.patterns_emitted`, the `mine.seconds`
/// histogram), so hot loops keep cheap local counters. When the governor
/// stopped the run, the set is filtered to the frontier support (subtrees
/// below it may have been cut mid-emission); then the request's
/// constraints are applied and the `run.*` metrics flushed.
Result<MineResult> RunMine(
    const std::string& name, const MineRequest& request, MiningStats* stats,
    RunContext** run_ctx,
    const std::function<PatternSet(uint64_t min_support)>& mine_impl);

/// Interface implemented by every complete-set frequent-pattern miner. A
/// single miner instance may be reused serially.
class FrequentPatternMiner {
 public:
  virtual ~FrequentPatternMiner() = default;

  /// Algorithm name for reports ("apriori", "h-mine", ...).
  virtual std::string name() const = 0;

  /// Mines the complete set of patterns the request asks for: support,
  /// constraints, governor, and per-request parallelism (see MineRequest).
  /// Singletons are included; the empty pattern is not. Patterns are in
  /// canonical item order but the set itself is in algorithm order — call
  /// SortCanonical() to compare. Miners without governed paths (Apriori,
  /// Eclat) ignore the governor and run to completion.
  Result<MineResult> Mine(const TransactionDb& db,
                          const MineRequest& request);

 protected:
  /// The algorithm: the complete set with support >= min_support (>= 1).
  /// Reads the governor from run_ctx_ and adds its counters to stats_.
  virtual PatternSet MineImpl(const TransactionDb& db,
                              uint64_t min_support) = 0;

  MiningStats stats_;
  /// Governor of the in-flight Mine call; bound for the span of that call
  /// only (MineImpl reads it, never writes it).
  RunContext* run_ctx_ = nullptr;
};

/// The non-recycling algorithms available in the substrate library.
enum class MinerKind {
  kApriori,
  kEclat,
  kHMine,
  kFpGrowth,
  kTreeProjection,
};

/// Instantiates a miner of the given kind.
std::unique_ptr<FrequentPatternMiner> CreateMiner(MinerKind kind);

/// Name of a miner kind without instantiating it.
const char* MinerKindName(MinerKind kind);

/// Converts a relative support fraction (0 < frac <= 1) to the absolute count
/// used by the miners, rounding up and clamping to at least 1.
uint64_t AbsoluteSupport(double fraction, size_t num_transactions);

/// Resolves a user-supplied support: below 1.0 it is a fraction of
/// `num_transactions` (AbsoluteSupport), otherwise an absolute count
/// (truncated). InvalidArgument, naming the value, when it is not positive,
/// not finite, or not below 2^64.
Result<uint64_t> ResolveSupport(double support, size_t num_transactions);

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_MINER_H_
