// The mining service: answers fpm::MineRequest queries over one database by
// planning the cheapest correct route through the pattern store.
//
// Route decision (see DESIGN.md "Serving & the pattern store"):
//
//   1. exact hit      — the store holds the set for this exact
//                       (dataset, fingerprint, support) key: return it.
//   2. filter-down    — a support-only set cached at ξ' <= ξ_new exists:
//                       FilterBySupport, no database access.
//   3. recycle        — a support-only set cached at ξ_old > ξ_new exists:
//                       compress the database with it (memoizing the image)
//                       and mine the compressed image (Recycle-*).
//   4. scratch        — nothing usable: mine the raw database.
//
// The seed among multiple cached sets is picked by core::SelectSeed. Every
// mined result is written back to the store (at its frontier support when a
// governor stopped the run early — a partial result is still exact at the
// frontier, so later queries recycle it, the paper's own loop). Constrained
// queries are served from support-complete sets and post-filtered; the
// filtered set is also cached under its fingerprint for exact repeats.
//
// Thread-safe and single-flight (DESIGN.md §13): concurrent Mine() calls
// share the sharded store, and identical in-flight requests — same
// (dataset, constraint fingerprint, support, governor class) — rendezvous
// on an in-flight table. Exactly one leader mines; followers wait on the
// leader's result (deadline-aware: a waiting follower's RunContext
// deadline still fires, yielding its own partial answer) and report route
// `exact` with `coalesced` set. A failed leader propagates its error to
// its own caller; followers elect a new leader instead of inheriting the
// failure. The `coalesce.leader` failpoint injects a leader failure for
// testing that election.

#ifndef GOGREEN_SERVE_MINING_SERVICE_H_
#define GOGREEN_SERVE_MINING_SERVICE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/compressor.h"
#include "core/seed_selection.h"
#include "fpm/miner.h"
#include "fpm/transaction_db.h"
#include "serve/pattern_store.h"
#include "util/thread_annotations.h"
#include "util/status.h"

namespace gogreen::serve {

struct ServiceOptions {
  PatternStore::Options store;
  /// Compression strategy of the recycle route (MCP wins in the paper).
  core::CompressionStrategy strategy = core::CompressionStrategy::kMcp;
  /// Algorithm of the scratch route.
  fpm::MinerKind base_miner = fpm::MinerKind::kHMine;
};

/// How the service answered one request, for tests and the session REPL.
/// This is also the payload of the per-request wide event (obs::RequestLog):
/// Mine() fills it from route bookkeeping plus tracer/store/governor deltas
/// taken across the request.
struct ServeStats {
  uint64_t request_id = 0;    ///< obs::RequestLog id stamped on the request.
  core::SeedRoute route = core::SeedRoute::kNone;
  uint64_t seed_support = 0;  ///< Support of the seed entry (0 on scratch).
  bool coalesced = false;     ///< Adopted a concurrent identical mine.
  double seconds = 0.0;       ///< End-to-end service time.
  double compress_seconds = 0.0;  ///< Recycle route only.
  double compression_ratio = 1.0;
  uint64_t patterns_returned = 0;
  bool partial = false;
  uint64_t frontier_support = 0;  ///< Meaningful when partial.
  uint64_t bytes_peak = 0;    ///< Governor-accounted scratch high-water.
  uint64_t threads = 0;       ///< Effective mining parallelism.
  uint64_t evictions = 0;     ///< Store evictions this request triggered.
  uint64_t image_evictions = 0;
  std::string tenant;         ///< Tenant id ("" = anonymous/default).
  uint64_t queued_ms = 0;     ///< Admission-queue wait (0 = no queueing).
  bool degraded = false;      ///< Served a stale/frontier store entry
                              ///< instead of mining (admission layer).
  bool shed = false;          ///< Rejected by admission control.
  uint64_t retry_after_ms = 0;  ///< Hint accompanying a shed rejection.
  std::string outcome;        ///< "ok" | "partial" | "degraded" | "shed"
                              ///< | "error:<Code>".
  /// Per-request wall seconds of the disjoint serve.* phase spans (empty
  /// when the tracer is disabled). See obs::RequestEvent::phases.
  std::vector<std::pair<std::string, double>> phases;
};

class MiningService {
 public:
  /// `dataset_id` names the database in store keys (and thus in persisted
  /// pattern files): stores loaded from disk only seed requests whose
  /// service carries the same id.
  MiningService(fpm::TransactionDb db, std::string dataset_id,
                ServiceOptions options = {});

  /// Answers one query; see the file comment for the route plan. When
  /// `stats` is non-null it receives this call's per-request stats (always
  /// filled, including on error) — per-call by construction, so concurrent
  /// callers never read each other's stats.
  Result<fpm::MineResult> Mine(const fpm::MineRequest& request,
                               ServeStats* stats = nullptr);

  PatternStore& store() { return store_; }
  const fpm::TransactionDb& db() const { return db_; }
  const std::string& dataset_id() const { return dataset_id_; }
  const ServiceOptions& options() const { return options_; }

  // --- Test seams for the coalescing protocol (set before concurrent
  // traffic starts; never in production paths). ---

  /// Invoked on the leader thread right after it wins the in-flight slot
  /// and before it mines — a rendezvous window: tests block here until the
  /// expected followers have parked.
  void SetLeaderHoldForTest(std::function<void()> hook) {
    leader_hold_for_test_ = std::move(hook);
  }

  /// Followers currently parked on in-flight leaders, across all keys.
  size_t CoalesceWaitersForTest() const EXCLUDES(inflight_mu_);

 private:
  /// One in-flight mine: the leader publishes into `result`/`status` and
  /// flips `done` under `mu`; followers park on `cv` (deadline-aware).
  struct InFlight {
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    bool ok GUARDED_BY(mu) = false;
    Status status GUARDED_BY(mu) = Status::OK();
    fpm::MineResult result GUARDED_BY(mu);
    size_t waiters GUARDED_BY(mu) = 0;
  };

  /// Single-flight rendezvous around MineRouted: elect a leader per
  /// coalesce key, park followers, propagate/elect on failure. Runs inside
  /// Mine()'s observability envelope.
  Result<fpm::MineResult> MineCoalesced(uint64_t min_support,
                                        const fpm::MineRequest& request,
                                        const std::string& fingerprint,
                                        RunContext* ctx, ServeStats* stats);
  /// The route plan from the file comment: exact-key lookup, then the
  /// support-complete ladder, then constraint post-filtering.
  Result<fpm::MineResult> MineRouted(uint64_t min_support,
                                     const fpm::MineRequest& request,
                                     const std::string& fingerprint,
                                     RunContext* ctx, ServeStats* stats);
  /// The store's set at `key` as an exact-route answer, or nullopt.
  std::optional<fpm::MineResult> LookupExact(const StoreKey& key,
                                             ServeStats* stats);
  /// The support-complete set at `min_support` (fingerprint ""), via the
  /// cheapest route. `lookup` says whether to try the exact key first (the
  /// caller may just have). `stats` accumulates route bookkeeping.
  Result<fpm::MineResult> MineSupportComplete(uint64_t min_support,
                                              bool lookup, RunContext* ctx,
                                              ServeStats* stats);
  Result<fpm::MineResult> MineRecycledFrom(const StoreKey& seed_key,
                                           uint64_t min_support,
                                           RunContext* ctx,
                                           ServeStats* stats);
  Result<fpm::MineResult> MineScratch(uint64_t min_support, RunContext* ctx);

  fpm::TransactionDb db_;
  std::string dataset_id_;
  ServiceOptions options_;
  PatternStore store_;
  /// Lock order (DESIGN.md §15): inflight_mu_ is only ever taken alone or
  /// before a flight->mu (leader election, retire); never after one — and
  /// never together with a PatternStore shard lock (the store is consulted
  /// strictly before the rendezvous).
  mutable Mutex inflight_mu_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_
      GUARDED_BY(inflight_mu_);
  std::function<void()> leader_hold_for_test_;
};

}  // namespace gogreen::serve

#endif  // GOGREEN_SERVE_MINING_SERVICE_H_
