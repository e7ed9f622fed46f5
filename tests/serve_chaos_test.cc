// Chaos harness for admission control and graceful degradation
// (DESIGN.md §14): multi-threaded randomized session scripts run under
// randomized failpoint schedules, admission pressure, and tiny budgets,
// and the invariants must hold anyway:
//
//   - every request terminates with a typed outcome — ok, partial,
//     degraded, shed, or error — with no deadlock and no lost wakeup;
//   - the store byte budget is never exceeded at any sampled instant;
//   - `serve.admitted + serve.shed + serve.errors` reconciles exactly
//     with the number of requests issued;
//   - shed requests return ResourceExhausted with a retry-after hint,
//     fast (they never burn a mining slot);
//   - a tenant's burst cannot reject another tenant's in-quota traffic;
//   - a tripped breaker serves flagged degraded results and recovers
//     after its cool-down.
//
// The CI chaos job replays ChaosRandomizedScriptsTerminateAndReconcile
// under three fixed GOGREEN_FAILPOINTS schedules and pipes the wide-event
// log through tools/obs/validate_request_log.py --concurrent. The file
// must run clean under TSan/ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "fpm/transaction_db.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "serve/admission.h"
#include "serve/mining_service.h"
#include "serve/pattern_store.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "util/failpoint.h"
#include "util/run_context.h"
#include "util/status.h"

namespace gogreen {
namespace {

using fpm::MineRequest;
using fpm::PatternSet;
using fpm::TransactionDb;
using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::MiningService;
using serve::ServeStats;
using serve::TenantQuota;
using testutil::MinePatterns;

uint64_t CounterNow(const char* name) {
  return obs::MetricRegistry::Global().Snapshot().CounterValue(name);
}

/// Serial oracle: a direct storeless mine at `minsup`.
PatternSet DirectMine(const TransactionDb& db, uint64_t minsup) {
  auto miner = fpm::CreateMiner(fpm::MinerKind::kHMine);
  auto result = MinePatterns(*miner, db, minsup);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

bool CanonicallyEqual(const PatternSet& expected, const PatternSet& got) {
  PatternSet a = expected;
  PatternSet b = got;
  return PatternSet::Equal(&a, &b);
}

// Sanitizer runs dilate wall time by an order of magnitude; the "shed is
// fast" bound stays meaningful but must not flake there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kShedLatencyBoundMs = 250.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr double kShedLatencyBoundMs = 250.0;
#else
constexpr double kShedLatencyBoundMs = 5.0;
#endif
#else
constexpr double kShedLatencyBoundMs = 5.0;
#endif

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Holds the service's mining path open: the leader-hold seam parks the
/// first mine until released, so tests can pile admission pressure behind
/// exactly one active request.
class SlotHolder {
 public:
  explicit SlotHolder(MiningService& service) : service_(service) {
    service_.SetLeaderHoldForTest([this] {
      entered_.store(true, std::memory_order_release);
      while (!release_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  ~SlotHolder() {
    Release();
    if (runner_.joinable()) runner_.join();
    service_.SetLeaderHoldForTest(nullptr);
  }

  /// Starts a mine through `admission` on a background thread and waits
  /// until it occupies a slot (parked on the hold seam inside the
  /// service).
  void Occupy(AdmissionController& admission, uint64_t minsup) {
    runner_ = std::thread([this, &admission, minsup] {
      ServeStats stats;
      auto result = admission.Mine(MineRequest::At(minsup), &stats);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    });
    while (!entered_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void Release() { release_.store(true, std::memory_order_release); }

 private:
  MiningService& service_;
  std::atomic<bool> entered_{false};
  std::atomic<bool> release_{false};
  std::thread runner_;
};

// A request arriving at a full queue is rejected in-line — before any
// slot, mine, or sleep — with a typed ResourceExhausted carrying the
// retry-after hint both in the status message and in ServeStats.
TEST(ServeChaosTest, ShedFastWithRetryAfterHint) {
  const failpoint::ScopedFailpoints quiet("");
  const TransactionDb db = testutil::RandomDb(/*seed=*/11, 400, 32, 6.0);
  MiningService service(db, "chaos-shed");

  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;
  AdmissionController admission(service, options);

  SlotHolder holder(service);
  holder.Occupy(admission, /*minsup=*/120);

  // Slot busy, queue size zero, empty store (nothing to degrade to): the
  // second request must shed immediately.
  const uint64_t shed_before = CounterNow("serve.shed");
  const auto start = std::chrono::steady_clock::now();
  ServeStats stats;
  auto result = admission.Mine(MineRequest::At(80), &stats);
  const double elapsed_ms = MillisSince(start);

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("retry-after-ms="),
            std::string::npos)
      << result.status().ToString();
  EXPECT_TRUE(stats.shed);
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.outcome, "shed");
  EXPECT_GT(stats.retry_after_ms, 0u);
  EXPECT_LT(elapsed_ms, kShedLatencyBoundMs);
  EXPECT_EQ(CounterNow("serve.shed") - shed_before, 1u);

  holder.Release();
}

// A request whose projected queue wait already exceeds its deadline is
// rejected up front instead of parking until the deadline fires.
TEST(ServeChaosTest, QueueWaitExceedingDeadlineShedsImmediately) {
  const failpoint::ScopedFailpoints quiet("");
  const TransactionDb db = testutil::RandomDb(/*seed=*/11, 400, 32, 6.0);
  MiningService service(db, "chaos-deadline");

  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 8;  // Room to queue — the estimate must reject anyway.
  AdmissionController admission(service, options);
  // Pretend history says every cost unit takes 10 s: any queued wait
  // projects far past a 50 ms deadline.
  admission.SeedCostEstimateForTest(10.0);

  SlotHolder holder(service);
  holder.Occupy(admission, /*minsup=*/120);

  RunContext ctx;
  ctx.SetDeadlineAfterMillis(50);
  MineRequest request = MineRequest::At(80);
  request.run_context = &ctx;
  const auto start = std::chrono::steady_clock::now();
  ServeStats stats;
  auto result = admission.Mine(request, &stats);
  const double elapsed_ms = MillisSince(start);

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(stats.shed);
  EXPECT_GT(stats.retry_after_ms, 0u);
  EXPECT_EQ(admission.QueueDepthForTest(), 0u);  // It never parked.
  // It must not have waited out the 50 ms deadline in the queue.
  EXPECT_LT(elapsed_ms, kShedLatencyBoundMs);

  holder.Release();
}

// Tenant buckets are independent: tenant A burning through a tiny quota
// sheds only A's requests; in-quota tenant B traffic is never rejected.
TEST(ServeChaosTest, TenantBurstNeverRejectsInQuotaTenant) {
  const failpoint::ScopedFailpoints quiet("");
  const TransactionDb db = testutil::RandomDb(/*seed=*/13, 400, 32, 6.0);
  // A one-byte store: nothing caches, so every request walks the full
  // gate path (no cheap-route bypass) and degradation finds no donor.
  serve::ServiceOptions service_options;
  service_options.store.byte_budget = 1;
  MiningService service(db, "chaos-tenants", service_options);

  AdmissionController admission(service);
  TenantQuota tiny;
  tiny.qps = 1e-6;  // Effectively: the primed token and nothing more.
  tiny.burst = 1.0;
  admission.SetTenantQuota("A", tiny);

  const uint64_t shed_before = CounterNow("serve.shed");
  int a_ok = 0;
  int a_shed = 0;
  for (int i = 0; i < 8; ++i) {
    MineRequest request = MineRequest::At(100 + i);
    request.tenant = "A";
    ServeStats stats;
    auto result = admission.Mine(request, &stats);
    if (result.ok()) {
      ++a_ok;
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      EXPECT_TRUE(stats.shed);
      EXPECT_EQ(stats.tenant, "A");
      EXPECT_GT(stats.retry_after_ms, 0u);
      ++a_shed;
    }
    // Interleaved in-quota tenant B request: must always be served.
    MineRequest other = MineRequest::At(100 + i);
    other.tenant = "B";
    ServeStats other_stats;
    auto other_result = admission.Mine(other, &other_stats);
    ASSERT_TRUE(other_result.ok()) << other_result.status().ToString();
    EXPECT_FALSE(other_stats.shed);
    EXPECT_EQ(other_stats.tenant, "B");
  }
  EXPECT_EQ(a_ok, 1);  // The primed token; everything after is over quota.
  EXPECT_EQ(a_shed, 7);
  EXPECT_EQ(CounterNow("serve.shed") - shed_before,
            static_cast<uint64_t>(a_shed));
}

// Repeated dispatch failures of one (fingerprint, support) key open its
// breaker: subsequent requests short-circuit into flagged degraded serves
// from the frontier entry, and after the cool-down a half-open probe
// closes the breaker again.
TEST(ServeChaosTest, BreakerTripsServesDegradedAndRecovers) {
  // Mask any GOGREEN_FAILPOINTS env schedule for the whole test: the
  // recovery phase below needs a genuinely fault-free dispatch path, and
  // the inner trip scope must restore to quiet, not to the env spec.
  const failpoint::ScopedFailpoints quiet("");
  const TransactionDb db = testutil::RandomDb(/*seed=*/17, 400, 32, 6.0);
  MiningService service(db, "chaos-breaker");

  AdmissionOptions options;
  options.breaker_threshold = 2;
  options.breaker_cooldown_ms = 150;
  AdmissionController admission(service, options);

  // A frontier entry above the target support: the degraded-serve donor.
  // The target itself (80 < 140) routes recycle — not cheap — so it walks
  // the full gate path.
  const uint64_t frontier_support = 140;
  const uint64_t target_support = 80;
  const PatternSet frontier = DirectMine(db, frontier_support);
  ASSERT_TRUE(service.store().Put({"chaos-breaker", "", frontier_support},
                                  frontier, db.NumTransactions()));

  const uint64_t errors_before = CounterNow("serve.errors");
  const uint64_t degraded_before = CounterNow("serve.degraded");
  const uint64_t breaker_before = CounterNow("serve.breaker_open");

  {
    const failpoint::ScopedFailpoints trip("breaker.trip:ioerror");
    // Two consecutive dispatch failures open the breaker.
    for (int i = 0; i < 2; ++i) {
      ServeStats stats;
      auto result = admission.Mine(MineRequest::At(target_support), &stats);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kIOError);
      EXPECT_EQ(stats.outcome, "error:IOError");
    }
    ASSERT_TRUE(admission.BreakerOpenForTest("", target_support));
    EXPECT_EQ(CounterNow("serve.breaker_open") - breaker_before, 1u);

    // Open breaker: served degraded from the frontier, flagged, without
    // touching the (still failing) dispatch path.
    ServeStats stats;
    auto result = admission.Mine(MineRequest::At(target_support), &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.outcome, "degraded");
    EXPECT_TRUE(result->partial);
    EXPECT_EQ(result->frontier_support, frontier_support);
    EXPECT_TRUE(CanonicallyEqual(frontier, result->patterns));
    EXPECT_EQ(result->stop_status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(CounterNow("serve.errors") - errors_before, 2u);
  EXPECT_GE(CounterNow("serve.degraded") - degraded_before, 1u);

  // Cool-down passes with the fault gone: the half-open probe mines for
  // real, closes the breaker, and the key serves normally again.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(options.breaker_cooldown_ms + 50));
  ServeStats stats;
  auto result = admission.Mine(MineRequest::At(target_support), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(stats.degraded);
  EXPECT_FALSE(result->partial);
  EXPECT_FALSE(admission.BreakerOpenForTest("", target_support));
  EXPECT_TRUE(CanonicallyEqual(DirectMine(db, target_support),
                               result->patterns));
}

// The headline chaos run: worker threads replay seeded random scripts —
// mixed tenants, supports, deadlines, byte budgets — against a small
// admission envelope while a failpoint schedule (from GOGREEN_FAILPOINTS,
// else a built-in default mix) injects faults at the admission, breaker,
// and coalescing seams. Every request must terminate with a typed
// outcome, the store budget must hold at every sampled instant, and the
// admission counters must reconcile exactly with the requests issued.
TEST(ServeChaosTest, ChaosRandomizedScriptsTerminateAndReconcile) {
  const std::string log_path = GetEnvOrEmpty("GOGREEN_CHAOS_REQUEST_LOG");
  if (!log_path.empty()) {
    ASSERT_TRUE(obs::RequestLog::Global().AttachSink(log_path).ok());
  }
  // CI arms GOGREEN_FAILPOINTS with one of the fixed chaos schedules; a
  // bare local run still injects a default mix.
  std::unique_ptr<failpoint::ScopedFailpoints> default_schedule;
  if (failpoint::CurrentSpec().empty()) {
    default_schedule = std::make_unique<failpoint::ScopedFailpoints>(
        "admission.queue:ioerror@0.05,admission.quota:ioerror@0.05,"
        "breaker.trip:ioerror@0.1,coalesce.leader:ioerror@0.05");
  }
  uint64_t seed = 29;
  const std::string seed_env = GetEnvOrEmpty("GOGREEN_CHAOS_SEED");
  if (!seed_env.empty()) seed = std::stoull(seed_env);

  const TransactionDb db = testutil::RandomDb(/*seed=*/19, 800, 40, 6.0);
  const std::vector<uint64_t> supports = {240, 160, 120, 90, 70, 55};

  size_t max_cost = 0;
  for (uint64_t s : supports) {
    max_cost = std::max(max_cost, serve::PatternSetCost(DirectMine(db, s)));
  }
  // Tight store: constant eviction churn under the workers.
  serve::ServiceOptions service_options;
  service_options.store.byte_budget = 2 * max_cost + 4096;
  MiningService service(db, "chaos", service_options);
  const size_t budget = service.store().byte_budget();

  AdmissionOptions admission_options;
  admission_options.max_concurrent = 2;
  admission_options.max_queue = 4;
  admission_options.breaker_threshold = 2;
  admission_options.breaker_cooldown_ms = 50;
  AdmissionController admission(service, admission_options);
  TenantQuota quota_a;
  quota_a.qps = 200.0;   // Generous but finite: occasionally sheds under
  quota_a.burst = 20.0;  // the burstiest interleavings.
  admission.SetTenantQuota("A", quota_a);

  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 25;
  const uint64_t admitted_before = CounterNow("serve.admitted");
  const uint64_t shed_before = CounterNow("serve.shed");
  const uint64_t errors_before = CounterNow("serve.errors");

  std::atomic<uint64_t> budget_violations{0};
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (service.store().bytes_in_use() > budget) {
        budget_violations.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  std::atomic<uint64_t> count_ok{0};
  std::atomic<uint64_t> count_degraded{0};
  std::atomic<uint64_t> count_shed{0};
  std::atomic<uint64_t> count_error{0};
  std::atomic<uint64_t> untyped_outcomes{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937_64 rng(seed * 7919 + w);
      const char* tenants[] = {"", "A", "B"};
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        MineRequest request =
            MineRequest::At(supports[rng() % supports.size()]);
        request.tenant = tenants[rng() % 3];
        RunContext ctx;
        const uint64_t dice = rng() % 4;
        if (dice == 1) {
          ctx.SetDeadlineAfterMillis(1 + static_cast<int64_t>(rng() % 40));
          request.run_context = &ctx;
        } else if (dice == 2) {
          ctx.SetMemoryBudget(4096 + rng() % (64 << 10));
          request.run_context = &ctx;
        }
        ServeStats stats;
        auto result = admission.Mine(request, &stats);
        // Categorize into exactly one typed bucket; anything whose stats
        // disagree with its bucket counts as untyped (a contract bug).
        if (result.ok()) {
          if (stats.degraded) {
            count_degraded.fetch_add(1, std::memory_order_relaxed);
            if (stats.outcome != "degraded") {
              untyped_outcomes.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            count_ok.fetch_add(1, std::memory_order_relaxed);
            if (stats.outcome != "ok" && stats.outcome != "partial") {
              untyped_outcomes.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } else if (stats.shed) {
          count_shed.fetch_add(1, std::memory_order_relaxed);
          if (result.status().code() != StatusCode::kResourceExhausted ||
              stats.outcome != "shed" || stats.retry_after_ms == 0 ||
              result.status().ToString().find("retry-after-ms=") ==
                  std::string::npos) {
            untyped_outcomes.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          count_error.fetch_add(1, std::memory_order_relaxed);
          if (stats.outcome.rfind("error:", 0) != 0) {
            untyped_outcomes.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  done.store(true, std::memory_order_release);
  sampler.join();

  const uint64_t issued = kThreads * kOpsPerThread;
  EXPECT_EQ(count_ok.load() + count_degraded.load() + count_shed.load() +
                count_error.load(),
            issued);
  EXPECT_EQ(untyped_outcomes.load(), 0u);
  EXPECT_EQ(budget_violations.load(), 0u)
      << "store byte budget exceeded mid-flight";
  EXPECT_EQ(admission.QueueDepthForTest(), 0u);

  // Exact reconciliation: every issued request landed in exactly one of
  // admitted (ok | partial | degraded), shed, or errors.
  const uint64_t admitted = CounterNow("serve.admitted") - admitted_before;
  const uint64_t shed = CounterNow("serve.shed") - shed_before;
  const uint64_t errors = CounterNow("serve.errors") - errors_before;
  EXPECT_EQ(admitted, count_ok.load() + count_degraded.load());
  EXPECT_EQ(shed, count_shed.load());
  EXPECT_EQ(errors, count_error.load());
  EXPECT_EQ(admitted + shed + errors, issued);

  if (!log_path.empty()) {
    obs::RequestLog::Global().DetachSink();
    const std::string metrics_path =
        GetEnvOrEmpty("GOGREEN_CHAOS_METRICS_JSON");
    if (!metrics_path.empty()) {
      ASSERT_TRUE(obs::WriteMetricsJson(metrics_path).ok());
    }
  }
}

// Shrinking the store budget at runtime while traffic keeps hitting it:
// the shrink evicts down to the new ceiling and serving continues (the
// single-threaded edge cases live in pattern_store_test.cc).
TEST(ServeChaosTest, RuntimeBudgetShrinkHoldsUnderTraffic) {
  const failpoint::ScopedFailpoints quiet("");
  const TransactionDb db = testutil::RandomDb(/*seed=*/23, 500, 36, 6.0);
  MiningService service(db, "chaos-budget");
  AdmissionController admission(service);

  // Warm several entries, then halve the budget concurrently with reads.
  const std::vector<uint64_t> supports = {200, 140, 100, 75};
  for (uint64_t s : supports) {
    ServeStats stats;
    ASSERT_TRUE(admission.Mine(MineRequest::At(s), &stats).ok());
  }
  const size_t used = service.store().bytes_in_use();
  ASSERT_GT(used, 0u);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::mt19937_64 rng(7);
    while (!done.load(std::memory_order_acquire)) {
      ServeStats stats;
      (void)admission.Mine(
          MineRequest::At(supports[rng() % supports.size()]), &stats);
    }
  });
  const size_t new_budget = used / 2;
  service.store().SetByteBudget(new_budget);
  done.store(true, std::memory_order_release);
  reader.join();
  // Quiescent re-arm: inserts that raced the first shrink were bounded by
  // whichever budget their CAS observed; this one settles the ledger.
  service.store().SetByteBudget(new_budget);
  EXPECT_EQ(service.store().byte_budget(), new_budget);
  EXPECT_LE(service.store().bytes_in_use(), new_budget);

  // And the service still answers correctly at the shrunken budget.
  ServeStats stats;
  auto result = admission.Mine(MineRequest::At(supports[0]), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(CanonicallyEqual(DirectMine(db, supports[0]),
                               result->patterns));
}

}  // namespace
}  // namespace gogreen
