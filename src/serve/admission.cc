#include "serve/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/request_log.h"
#include "util/failpoint.h"
#include "util/run_context.h"
#include "util/status_codes.h"

namespace gogreen::serve {

namespace {

// --- Geerts–Goethals–Van den Bussche candidate-count bound. ---
//
// With n frequent items, the number of candidate itemsets Apriori-style
// level-wise mining can ever generate is bounded tightly by iterating the
// Kruskal–Katona-shaped recurrence: if m sets are frequent at level k, at
// most C(a_k, k+1) + C(a_{k-1}, k) + ... are candidates at level k+1,
// where m = C(a_k, k) + C(a_{k-1}, k-1) + ... is the largest-binomial
// (k-canonical) representation of m. Summing levels from n items down
// gives a cheap admission-time proxy for the worst-case work of a mine —
// exactly the bound the paper's related work uses to cost level-wise
// passes. All arithmetic saturates at kSaturated: beyond that scale the
// estimate is "huge" and precision is irrelevant.

constexpr uint64_t kSaturated = uint64_t{1} << 62;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  const uint64_t sum = a + b;  // a, b <= kSaturated: no uint64 overflow.
  return sum >= kSaturated ? kSaturated : sum;
}

/// C(n, k), saturating at kSaturated.
uint64_t Binomial(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  uint64_t result = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    const uint64_t factor = n - k + i;
    if (result > kSaturated / factor) return kSaturated;
    // Product of i consecutive integers is divisible by i!: exact.
    result = result * factor / i;
  }
  return std::min(result, kSaturated);
}

/// Largest a with C(a, k) <= m, for m >= 1 and k >= 2 (k == 1 is a == m,
/// special-cased by the caller to avoid a linear search).
uint64_t LargestBinomialBase(uint64_t m, uint64_t k) {
  uint64_t lo = k;  // C(k, k) == 1 <= m.
  uint64_t hi = k + 1;
  while (Binomial(hi, k) <= m) {
    lo = hi;
    if (hi > (uint64_t{1} << 33)) break;  // C(2^33, 2) already saturates.
    hi *= 2;
  }
  while (lo + 1 < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (Binomial(mid, k) <= m) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The bound on level-(k+1) candidates given m frequent sets at level k.
uint64_t NextLevelBound(uint64_t m, uint64_t k) {
  if (m >= kSaturated) return kSaturated;
  uint64_t bound = 0;
  uint64_t level = k;
  uint64_t rest = m;
  while (rest > 0 && level >= 1) {
    const uint64_t a = level == 1 ? rest : LargestBinomialBase(rest, level);
    bound = SatAdd(bound, Binomial(a, level + 1));
    rest -= Binomial(a, level);
    if (level == 1) break;
    --level;
  }
  return bound;
}

/// Total candidates across all levels starting from n frequent items.
uint64_t TotalCandidateBound(uint64_t n) {
  uint64_t total = n;
  uint64_t m = n;
  for (uint64_t k = 1; m > 0 && k < 64; ++k) {
    m = NextLevelBound(m, k);
    total = SatAdd(total, m);
    if (total >= kSaturated) return kSaturated;
  }
  return total;
}

uint64_t CeilMillis(std::chrono::steady_clock::duration d) {
  if (d <= std::chrono::steady_clock::duration::zero()) return 0;
  return static_cast<uint64_t>(
      std::chrono::ceil<std::chrono::milliseconds>(d).count());
}

obs::Counter* AdmittedCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("serve.admitted");
  return c;
}

obs::Counter* ShedCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("serve.shed");
  return c;
}

obs::Counter* DegradedCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("serve.degraded");
  return c;
}

obs::Counter* BreakerOpenCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("serve.breaker_open");
  return c;
}

obs::Counter* ErrorsCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("serve.errors");
  return c;
}

obs::Histogram* QueueWaitHistogram() {
  static obs::Histogram* h =
      obs::MetricRegistry::Global().GetHistogram("serve.queue_wait");
  return h;
}

}  // namespace

AdmissionController::AdmissionController(MiningService& service,
                                         AdmissionOptions options)
    : service_(service), options_(options) {
  item_supports_ = service_.db().CountItemSupports();
  std::sort(item_supports_.begin(), item_supports_.end());
}

void AdmissionController::SetTenantQuota(const std::string& tenant,
                                         const TenantQuota& quota) {
  MutexLock lock(mu_);
  Bucket& bucket = buckets_[tenant];
  bucket.quota = quota;
  bucket.quota_set = true;
  bucket.tokens = 0.0;
  bucket.last = Clock::time_point{};  // Re-primes full on next touch.
}

Result<fpm::MineResult> AdmissionController::Mine(
    const fpm::MineRequest& request, ServeStats* stats_out) {
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t minsup,
                           request.EffectiveMinSupport());
  const bool constrained = request.constraints != nullptr &&
                           request.constraints->NumConstraints() > 0;
  Gate gate;
  gate.min_support = minsup;
  gate.fingerprint =
      constrained ? request.constraints->Fingerprint() : std::string();
  gate.breaker_key = gate.fingerprint + "\n" + std::to_string(minsup);
  gate.cost_units = CostUnits(minsup);

  // Gate 1: a request the store already answers (exact hit, filter-down
  // seed) costs no mining — serve it outside quota and queue so cache hits
  // never starve behind a burst of scratch mines.
  if (CheapRouteAvailable(gate)) {
    return Dispatch(request, gate, stats_out);
  }

  // Gate 2: circuit breaker for this (fingerprint, support) key. The
  // breaker decision is computed under mu_ and acted on after release, so
  // DegradeOrShed (which re-enters the store) never runs with mu_ held.
  {
    bool breaker_open = false;
    uint64_t retry_after_ms = 1;
    {
      MutexLock lock(mu_);
      auto it = breakers_.find(gate.breaker_key);
      if (it != breakers_.end() && it->second.open) {
        const Clock::time_point now = Clock::now();
        if (!it->second.probe_inflight && now >= it->second.open_until) {
          it->second.probe_inflight = true;
          gate.probe = true;
        } else {
          breaker_open = true;
          retry_after_ms =
              std::max<uint64_t>(1, CeilMillis(it->second.open_until - now));
        }
      }
    }
    if (breaker_open) {
      return DegradeOrShed(request, gate, "circuit breaker open",
                           retry_after_ms, stats_out);
    }
  }
  if (gate.probe) {
    // Half-open probe: dispatch directly. One probe per cool-down is the
    // breaker's own bounded traffic; skipping quota and queue means a shed
    // can never leave the breaker stuck half-open.
    return Dispatch(request, gate, stats_out);
  }

  // Gate 3: per-tenant token bucket.
  {
    uint64_t retry_after_ms = 1;
    bool denied = false;
    std::string reason;
    {
      MutexLock lock(mu_);
      if (!failpoint::MaybeFail("admission.quota").ok()) {
        denied = true;
        reason = "tenant quota failure injected";
      } else if (!TakeTokenLocked(request.tenant, Clock::now(),
                                  &retry_after_ms)) {
        denied = true;
        reason = "tenant \"" + request.tenant + "\" over quota";
      }
    }
    if (denied) {
      return DegradeOrShed(request, gate, reason, retry_after_ms, stats_out);
    }
  }

  // Gate 4: bounded deadline-aware wait queue in front of the mining slots.
  bool dispatched = false;
  std::string shed_reason;
  uint64_t shed_retry_ms = 0;
  Timer queue_timer;
  {
    RunContext* governed = request.run_context;
    // Registered before mu_ is taken, cleared after it is released: the
    // trip path locks the RunContext wake mutex then mu_, never the
    // reverse.
    ScopedWakeup wakeup(governed, [this] {
      MutexLock lock(mu_);
      cv_.NotifyAll();
    });
    MutexLock lock(mu_);
    if (!failpoint::MaybeFail("admission.queue").ok()) {
      shed_reason = "admission queue failure injected";
      shed_retry_ms = std::max<uint64_t>(1, ProjectedWaitMsLocked());
    } else if (active_ >= options_.max_concurrent &&
               fifo_.size() >= options_.max_queue) {
      shed_reason = "admission queue full";
      shed_retry_ms = std::max<uint64_t>(1, ProjectedWaitMsLocked());
    } else if (governed != nullptr && governed->has_deadline()) {
      const uint64_t projected_ms = ProjectedWaitMsLocked();
      const uint64_t remaining_ms =
          CeilMillis(governed->deadline() - Clock::now());
      if (projected_ms > remaining_ms) {
        shed_reason = "projected queue wait " + std::to_string(projected_ms) +
                      "ms exceeds deadline";
        shed_retry_ms = projected_ms;
      }
    }
    if (shed_reason.empty()) {
      const uint64_t ticket = next_ticket_++;
      fifo_.push_back(ticket);
      queued_cost_ += gate.cost_units;
      while (true) {
        if (fifo_.front() == ticket && active_ < options_.max_concurrent) {
          dispatched = true;
          break;
        }
        if (governed != nullptr && governed->stopped()) break;
        if (governed != nullptr && governed->has_deadline()) {
          // Compare the clock directly rather than PollNow(): tripping the
          // context here would invoke the wakeup hook above on this thread
          // while mu_ is held.
          if (Clock::now() >= governed->deadline()) break;
          cv_.WaitUntil(mu_, governed->deadline());
        } else {
          cv_.Wait(mu_);
        }
      }
      for (auto it = fifo_.begin(); it != fifo_.end(); ++it) {
        if (*it == ticket) {
          fifo_.erase(it);
          break;
        }
      }
      queued_cost_ -= gate.cost_units;
      if (queued_cost_ < 0) queued_cost_ = 0;
      if (dispatched) {
        ++active_;
        active_cost_ += gate.cost_units;
      }
      // We left the queue front (dispatched or abandoned): whoever is next
      // must re-check.
      cv_.NotifyAll();
      if (!dispatched) {
        shed_reason = governed != nullptr && governed->stopped()
                          ? "cancelled while queued"
                          : "deadline expired while queued";
        shed_retry_ms = std::max<uint64_t>(1, ProjectedWaitMsLocked());
      }
    }
  }
  gate.queued_ms = static_cast<uint64_t>(queue_timer.ElapsedMillis());
  if (!dispatched) {
    return DegradeOrShed(request, gate, shed_reason, shed_retry_ms,
                         stats_out);
  }
  QueueWaitHistogram()->Observe(queue_timer.ElapsedSeconds());
  Result<fpm::MineResult> outcome = Dispatch(request, gate, stats_out);
  ReleaseSlot(gate.cost_units);
  return outcome;
}

Result<fpm::MineResult> AdmissionController::Dispatch(
    const fpm::MineRequest& request, const Gate& gate,
    ServeStats* stats_out) {
  // Injected dispatch failure: the mine "fails" before the service sees
  // it, feeding the breaker exactly like a real mining error would.
  const Status inject = failpoint::MaybeFail("breaker.trip");
  if (!inject.ok()) {
    OnMineFailure(gate);
    ServeStats stats;
    stats.route = core::SeedRoute::kNone;
    stats.tenant = request.tenant;
    stats.queued_ms = gate.queued_ms;
    stats.seconds = gate.timer.ElapsedSeconds();
    stats.outcome = OutcomeLabel(Outcome::kError, inject.code());
    ErrorsCounter()->Add(1);
    EmitAdmissionEvent(gate, std::move(stats), stats_out);
    return inject;
  }

  fpm::MineRequest forward = request;
  forward.queued_ms = gate.queued_ms;

  ServeStats stats;
  Result<fpm::MineResult> outcome = service_.Mine(forward, &stats);
  if (outcome.ok()) {
    OnMineSuccess(gate, stats.seconds);
    AdmittedCounter()->Add(1);
  } else {
    OnMineFailure(gate);
  }
  if (stats_out != nullptr) *stats_out = stats;
  return outcome;
}

Result<fpm::MineResult> AdmissionController::DegradeOrShed(
    const fpm::MineRequest& request, const Gate& gate,
    const std::string& reason, uint64_t retry_after_ms,
    ServeStats* stats_out) {
  bool served = false;
  Result<fpm::MineResult> degraded =
      TryServeDegraded(request, gate, &served, stats_out);
  if (served) return degraded;
  return Shed(gate, request.tenant, reason, retry_after_ms, stats_out);
}

Result<fpm::MineResult> AdmissionController::TryServeDegraded(
    const fpm::MineRequest& request, const Gate& gate, bool* served,
    ServeStats* stats_out) {
  *served = false;
  PatternStore& store = service_.store();
  const std::string& dataset = service_.dataset_id();

  fpm::PatternSet patterns;
  uint64_t seed_support = gate.min_support;
  bool partial = false;
  bool found = false;

  // An exact answer that appeared mid-flight (e.g. a concurrent mine
  // finished while this request was being rejected).
  if (auto cached = store.Get({dataset, gate.fingerprint, gate.min_support});
      cached != nullptr) {
    patterns = *cached;
    found = true;
  } else {
    // Support-only shelf: a source at-or-below the target filters down to
    // the exact answer; failing that, the closest frontier entry above the
    // target is the stale-but-flagged serve.
    uint64_t below = 0;
    uint64_t above = std::numeric_limits<uint64_t>::max();
    for (const core::SeedCandidate& cand : store.Candidates(dataset, "")) {
      if (cand.min_support <= gate.min_support) {
        below = std::max(below, cand.min_support);
      } else {
        above = std::min(above, cand.min_support);
      }
    }
    if (below > 0) {
      if (auto seed = store.Get({dataset, "", below}); seed != nullptr) {
        patterns = seed->FilterBySupport(gate.min_support);
        seed_support = below;
        found = true;
      }
    }
    if (!found && above != std::numeric_limits<uint64_t>::max()) {
      if (auto seed = store.Get({dataset, "", above}); seed != nullptr) {
        patterns = *seed;
        seed_support = above;
        partial = true;
        found = true;
      }
    }
    if (found && request.constraints != nullptr &&
        request.constraints->NumConstraints() > 0) {
      patterns = request.constraints->Filter(patterns);
    }
  }
  if (!found) return Status::NotFound("no degradable store entry");

  ServeStats stats;
  stats.route = core::SeedRoute::kExact;
  stats.seed_support = seed_support;
  stats.tenant = request.tenant;
  stats.queued_ms = gate.queued_ms;
  stats.degraded = true;
  stats.partial = partial;
  stats.frontier_support = partial ? seed_support : gate.min_support;
  stats.patterns_returned = patterns.size();
  stats.outcome = OutcomeLabel(Outcome::kDegraded);
  stats.seconds = gate.timer.ElapsedSeconds();

  fpm::MineResult result;
  result.partial = partial;
  result.frontier_support = stats.frontier_support;
  if (partial) {
    result.stop_status = Status::ResourceExhausted(
        "degraded serve: complete only at support " +
        std::to_string(seed_support));
  }
  result.patterns = std::move(patterns);

  DegradedCounter()->Add(1);
  AdmittedCounter()->Add(1);
  EmitAdmissionEvent(gate, std::move(stats), stats_out);
  *served = true;
  return result;
}

Result<fpm::MineResult> AdmissionController::Shed(
    const Gate& gate, const std::string& tenant, const std::string& reason,
    uint64_t retry_after_ms, ServeStats* stats_out) {
  if (retry_after_ms == 0) retry_after_ms = 1;
  ServeStats stats;
  stats.route = core::SeedRoute::kNone;
  stats.tenant = tenant;
  stats.queued_ms = gate.queued_ms;
  stats.shed = true;
  stats.retry_after_ms = retry_after_ms;
  stats.outcome = OutcomeLabel(Outcome::kShed);
  stats.seconds = gate.timer.ElapsedSeconds();
  ShedCounter()->Add(1);
  EmitAdmissionEvent(gate, std::move(stats), stats_out);
  return Status::ResourceExhausted(
      reason + "; retry-after-ms=" + std::to_string(retry_after_ms));
}

bool AdmissionController::CheapRouteAvailable(const Gate& gate) const {
  PatternStore& store = service_.store();
  const std::string& dataset = service_.dataset_id();
  if (store.Get({dataset, gate.fingerprint, gate.min_support}) != nullptr) {
    return true;
  }
  // A support-only exact or filter-down seed answers constrained requests
  // too (post-filtering is linear). The store can evict between this check
  // and the dispatch — then the "cheap" request mines for real, which is
  // rare and merely optimistic, never incorrect.
  const core::SeedChoice choice =
      core::SelectSeed(store.Candidates(dataset, ""), gate.min_support);
  return choice.route == core::SeedRoute::kExact ||
         choice.route == core::SeedRoute::kFilterDown;
}

bool AdmissionController::TakeTokenLocked(const std::string& tenant,
                                          Clock::time_point now,
                                          uint64_t* retry_after_ms) {
  Bucket& bucket = buckets_[tenant];
  const TenantQuota& quota =
      bucket.quota_set ? bucket.quota : options_.default_quota;
  if (quota.qps <= 0.0) return true;  // Unlimited tenant.
  const double burst =
      quota.burst > 0.0 ? quota.burst : std::max(1.0, quota.qps);
  if (bucket.last == Clock::time_point{}) {
    bucket.tokens = burst;
  } else {
    const double dt =
        std::chrono::duration<double>(now - bucket.last).count();
    bucket.tokens = std::min(burst, bucket.tokens + dt * quota.qps);
  }
  bucket.last = now;
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return true;
  }
  *retry_after_ms = static_cast<uint64_t>(
      std::ceil((1.0 - bucket.tokens) / quota.qps * 1000.0));
  if (*retry_after_ms == 0) *retry_after_ms = 1;
  return false;
}

uint64_t AdmissionController::ProjectedWaitMsLocked() const {
  if (ewma_seconds_per_unit_ <= 0.0) return 0;  // No history: optimistic.
  const double pending = queued_cost_ + active_cost_;
  const double slots =
      static_cast<double>(std::max<size_t>(1, options_.max_concurrent));
  return static_cast<uint64_t>(pending * ewma_seconds_per_unit_ / slots *
                               1000.0);
}

void AdmissionController::ObserveMineSecondsLocked(double seconds,
                                                   double cost_units) {
  const double per_unit = seconds / std::max(cost_units, 1e-9);
  ewma_seconds_per_unit_ = ewma_seconds_per_unit_ <= 0.0
                               ? per_unit
                               : 0.8 * ewma_seconds_per_unit_ +
                                     0.2 * per_unit;
}

void AdmissionController::OnMineSuccess(const Gate& gate, double seconds) {
  MutexLock lock(mu_);
  ObserveMineSecondsLocked(seconds, gate.cost_units);
  breakers_.erase(gate.breaker_key);  // Success closes (and forgets).
}

void AdmissionController::OnMineFailure(const Gate& gate) {
  MutexLock lock(mu_);
  Breaker& breaker = breakers_[gate.breaker_key];
  breaker.probe_inflight = false;
  ++breaker.consecutive_failures;
  if (breaker.consecutive_failures >= options_.breaker_threshold ||
      gate.probe) {
    const bool opening = !breaker.open || gate.probe;
    breaker.open = true;
    breaker.open_until =
        Clock::now() + std::chrono::milliseconds(options_.breaker_cooldown_ms);
    if (opening) BreakerOpenCounter()->Add(1);
  }
}

void AdmissionController::ReleaseSlot(double cost_units) {
  MutexLock lock(mu_);
  --active_;
  active_cost_ -= cost_units;
  if (active_cost_ < 0) active_cost_ = 0;
  cv_.NotifyAll();
}

void AdmissionController::EmitAdmissionEvent(const Gate& gate,
                                             ServeStats stats,
                                             ServeStats* stats_out) {
  stats.request_id = obs::RequestLog::Global().NextRequestId();
  obs::RequestEvent event;
  event.request_id = stats.request_id;
  event.dataset = service_.dataset_id();
  event.min_support = gate.min_support;
  event.fingerprint = gate.fingerprint;
  event.route = core::SeedRouteName(stats.route);
  event.cache_hit = stats.route == core::SeedRoute::kExact;
  event.coalesced = false;
  event.seed_support = stats.seed_support;
  event.patterns = stats.patterns_returned;
  event.partial = stats.partial;
  event.frontier_support = stats.frontier_support;
  event.outcome = stats.outcome;
  event.seconds = stats.seconds;
  event.threads = stats.threads;
  event.tenant = stats.tenant;
  event.queued_ms = stats.queued_ms;
  event.degraded = stats.degraded;
  event.shed = stats.shed;
  obs::RequestLog::Global().Record(std::move(event));
  if (stats_out != nullptr) *stats_out = std::move(stats);
}

double AdmissionController::CostUnits(uint64_t min_support) const {
  const auto it = std::lower_bound(item_supports_.begin(),
                                   item_supports_.end(), min_support);
  const uint64_t frequent_items =
      static_cast<uint64_t>(item_supports_.end() - it);
  const uint64_t bound = TotalCandidateBound(frequent_items);
  // Log scale: the bound spans tens of orders of magnitude; queue math
  // wants something proportional to achievable work, not the astronomical
  // worst case.
  return 1.0 + std::log2(1.0 + static_cast<double>(bound));
}

void AdmissionController::SeedCostEstimateForTest(double seconds_per_unit) {
  MutexLock lock(mu_);
  ewma_seconds_per_unit_ = seconds_per_unit;
}

size_t AdmissionController::QueueDepthForTest() const {
  MutexLock lock(mu_);
  return fifo_.size();
}

bool AdmissionController::BreakerOpenForTest(const std::string& fingerprint,
                                             uint64_t min_support) const {
  MutexLock lock(mu_);
  const auto it =
      breakers_.find(fingerprint + "\n" + std::to_string(min_support));
  return it != breakers_.end() && it->second.open;
}

double AdmissionController::CostUnitsForTest(uint64_t min_support) const {
  return CostUnits(min_support);
}

}  // namespace gogreen::serve
