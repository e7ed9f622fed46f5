// Admission control in front of MiningService::Mine: the overload armor
// for the serving layer (DESIGN.md §14).
//
// Every incoming MineRequest passes four gates before it may mine:
//
//   1. Cheap-route bypass — a request the store can answer without mining
//      (exact hit or filter-down seed) skips quotas and the queue
//      entirely, so a burst of expensive scratch mines can never starve
//      cache hits.
//   2. Circuit breaker — per (fingerprint, support) key. After
//      `breaker_threshold` consecutive mine failures the key opens for
//      `breaker_cooldown_ms`: requests for it are short-circuited into a
//      degraded serve (or a typed shed) without burning a slot. After the
//      cool-down one half-open probe mines for real; success closes the
//      breaker, failure re-opens it.
//   3. Per-tenant token bucket — `qps` sustained admissions with `burst`
//      headroom per tenant id. A tenant over quota is degraded/shed
//      without touching the shared queue, so one tenant's burst cannot
//      reject another tenant's in-quota traffic.
//   4. Bounded deadline-aware wait queue — at most `max_concurrent`
//      requests mine at once; at most `max_queue` wait behind them, FIFO.
//      A request whose *projected* queue wait (Geerts et al. candidate-
//      bound cost estimate × an EWMA of observed seconds-per-unit) already
//      exceeds its RunContext deadline is rejected immediately with a
//      typed ResourceExhausted carrying a retry-after hint, instead of
//      timing out in the queue after burning a slot.
//
// Graceful degradation: a request that would be shed (queue full, over
// quota, breaker open, deadline unmeetable) is first offered a stale
// answer from the PatternStore — an exact or filtered-down entry when one
// appears mid-flight, else the closest frontier entry above the target
// support — returned as an explicitly flagged `degraded` response
// (ServeStats::degraded, wide-event `degraded`, outcome "degraded"). Only
// when no stale entry exists does the request shed: a `ResourceExhausted`
// status whose message carries "retry-after-ms=<n>" (also in
// ServeStats::retry_after_ms), outcome "shed".
//
// Every request terminates with exactly one typed outcome — ok, partial,
// degraded, shed, or error — and exactly one wide event. The counters
// reconcile exactly: serve.admitted (ok|partial|degraded) + serve.shed +
// serve.errors == requests issued; tests/serve_chaos_test.cc proves it
// under randomized failpoint schedules.

#ifndef GOGREEN_SERVE_ADMISSION_H_
#define GOGREEN_SERVE_ADMISSION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "fpm/miner.h"
#include "serve/mining_service.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace gogreen::serve {

/// Admission rate of one tenant. The zero value means "unlimited".
struct TenantQuota {
  /// Sustained admissions per second through the token bucket; 0 disables
  /// rate limiting for the tenant.
  double qps = 0.0;
  /// Bucket capacity (burst headroom). <= 0 defaults to max(1, qps).
  double burst = 0.0;
};

struct AdmissionOptions {
  /// Requests mining at once; arrivals beyond this wait in the queue.
  size_t max_concurrent = 4;
  /// Requests waiting behind the active set; arrivals beyond this shed.
  size_t max_queue = 16;
  /// Quota applied to tenants without an explicit SetTenantQuota entry.
  /// Unlimited by default.
  TenantQuota default_quota;
  /// Consecutive mine failures of one (fingerprint, support) key that
  /// open its circuit breaker.
  int breaker_threshold = 3;
  /// How long an open breaker short-circuits before the half-open probe.
  uint64_t breaker_cooldown_ms = 1000;
};

/// Thread-safe admission layer wrapping one MiningService. See the file
/// comment for the gate order and the degradation model.
class AdmissionController {
 public:
  explicit AdmissionController(MiningService& service,
                               AdmissionOptions options = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Installs (or replaces) `tenant`'s quota. Safe concurrently with
  /// Mine(); the bucket's accumulated tokens are reset.
  void SetTenantQuota(const std::string& tenant, const TenantQuota& quota);

  /// Admits, queues, degrades, or sheds one request; see the file comment.
  /// Shed requests return ResourceExhausted with "retry-after-ms=<n>" in
  /// the message; degraded serves return ok with stats->degraded set (and
  /// partial/frontier_support describing the staleness). `stats` is always
  /// filled when non-null.
  Result<fpm::MineResult> Mine(const fpm::MineRequest& request,
                               ServeStats* stats = nullptr);

  MiningService& service() { return service_; }
  const AdmissionOptions& options() const { return options_; }

  // --- Test seams (set before traffic starts). ---

  /// Overrides the EWMA of observed mine seconds per cost unit, so tests
  /// exercise the projected-wait rejection deterministically.
  void SeedCostEstimateForTest(double seconds_per_unit);
  /// Requests currently parked in the wait queue.
  size_t QueueDepthForTest() const;
  /// Whether the (fingerprint, support) breaker is currently open.
  bool BreakerOpenForTest(const std::string& fingerprint,
                          uint64_t min_support) const;
  /// The admission-time cost estimate (Geerts et al. candidate-bound
  /// units) for a support-only query at `min_support`.
  double CostUnitsForTest(uint64_t min_support) const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Token-bucket state of one tenant. Starts full on first touch and
  /// refills lazily on access.
  struct Bucket {
    TenantQuota quota;
    bool quota_set = false;  ///< SetTenantQuota installed `quota`; false
                             ///< falls back to options_.default_quota.
    double tokens = 0.0;
    Clock::time_point last{};  ///< Epoch value = untouched (prime full).
  };

  /// Per-(fingerprint, support) circuit-breaker state.
  struct Breaker {
    int consecutive_failures = 0;
    bool open = false;
    bool probe_inflight = false;  ///< Half-open: one probe mining now.
    Clock::time_point open_until{};
  };

  /// Context carried across the gates of one request.
  struct Gate {
    uint64_t min_support = 0;
    std::string fingerprint;
    std::string breaker_key;
    double cost_units = 1.0;
    uint64_t queued_ms = 0;
    bool probe = false;  ///< This request is a half-open breaker probe.
    Timer timer;         ///< Started at Mine() entry; stamps shed/degraded
                         ///< event seconds.
  };

  Result<fpm::MineResult> Dispatch(const fpm::MineRequest& request,
                                   const Gate& gate, ServeStats* stats_out);
  Result<fpm::MineResult> DegradeOrShed(const fpm::MineRequest& request,
                                        const Gate& gate,
                                        const std::string& reason,
                                        uint64_t retry_after_ms,
                                        ServeStats* stats_out);
  /// Serves a stale/frontier store entry as a degraded response. Sets
  /// `*served`; on false the return value is a placeholder error the
  /// caller must ignore (Result has no empty state).
  Result<fpm::MineResult> TryServeDegraded(const fpm::MineRequest& request,
                                           const Gate& gate, bool* served,
                                           ServeStats* stats_out);
  Result<fpm::MineResult> Shed(const Gate& gate, const std::string& tenant,
                               const std::string& reason,
                               uint64_t retry_after_ms,
                               ServeStats* stats_out);

  /// True when the store can answer without mining (exact hit or
  /// filter-down seed): such requests bypass quota and queue.
  bool CheapRouteAvailable(const Gate& gate) const;

  /// Takes one token from `tenant`'s bucket. On denial returns false and
  /// sets `*retry_after_ms` to the refill time of the missing fraction.
  bool TakeTokenLocked(const std::string& tenant, Clock::time_point now,
                       uint64_t* retry_after_ms) REQUIRES(mu_);

  /// Projected wait (ms) before a new arrival would start: pending work
  /// ahead of it (queued + active cost units) divided by the slot count,
  /// scaled by the observed seconds-per-unit EWMA.
  uint64_t ProjectedWaitMsLocked() const REQUIRES(mu_);
  void ObserveMineSecondsLocked(double seconds, double cost_units)
      REQUIRES(mu_);

  void OnMineSuccess(const Gate& gate, double seconds);
  void OnMineFailure(const Gate& gate);
  void ReleaseSlot(double cost_units);

  /// Emits the wide event for a request the service never saw (shed,
  /// degraded, or admission-injected error) and fills `stats_out`.
  void EmitAdmissionEvent(const Gate& gate, ServeStats stats,
                          ServeStats* stats_out);

  /// Admission-time cost estimate: Geerts–Goethals–Van den Bussche tight
  /// candidate-count bound for the number of frequent items at
  /// `min_support`, compressed to log scale.
  double CostUnits(uint64_t min_support) const;

  MiningService& service_;
  const AdmissionOptions options_;

  /// Item supports sorted ascending, precomputed once from the service
  /// database; the frequent-item count at any support is one binary
  /// search. Immutable after construction.
  std::vector<uint64_t> item_supports_;

  /// One lock for every admission gate. Lock order (DESIGN.md §15): mu_
  /// is taken after the RunContext wake mutex on the trip path (ScopedWakeup
  /// hook) and never the reverse; it is never held across a dispatch into
  /// the service (so it never nests with inflight_mu_ or a shard lock).
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<uint64_t> fifo_ GUARDED_BY(mu_);  ///< Waiting tickets, FIFO.
  uint64_t next_ticket_ GUARDED_BY(mu_) = 1;
  size_t active_ GUARDED_BY(mu_) = 0;  ///< Requests currently dispatched.
  double queued_cost_ GUARDED_BY(mu_) = 0.0;  ///< Cost waiting in fifo_.
  double active_cost_ GUARDED_BY(mu_) = 0.0;  ///< Cost currently mining.
  /// EWMA of observed mine seconds per cost unit (0 = no history yet:
  /// projected waits are 0 and everything admits).
  double ewma_seconds_per_unit_ GUARDED_BY(mu_) = 0.0;
  std::unordered_map<std::string, Bucket> buckets_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Breaker> breakers_ GUARDED_BY(mu_);
};

}  // namespace gogreen::serve

#endif  // GOGREEN_SERVE_ADMISSION_H_
