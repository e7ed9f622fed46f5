// Concurrency stress harness for the serving layer (DESIGN.md §13): M
// client threads replay randomized overlapping query scripts against one
// MiningService and every answer must be canonically identical to a serial
// replay, with the store's byte budget holding at every sampled instant.
// The single-flight protocol gets deterministic coverage through the
// leader-hold test seam and the `coalesce.leader` failpoint: an identical
// burst performs exactly one mine (proven by `mine.runs` and the
// serve.scratch / serve.cache_hits / serve.coalesced counters), a parked
// follower's RunContext deadline still fires while the leader keeps
// mining, and a killed leader propagates its error to its own caller while
// the followers elect a new leader instead of hanging.
//
// This file must run clean under the TSan CI leg; it is the concurrency
// proof for the sharded PatternStore and the in-flight table.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/seed_selection.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "fpm/transaction_db.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "serve/mining_service.h"
#include "serve/pattern_store.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "util/failpoint.h"
#include "util/run_context.h"
#include "util/status.h"

namespace gogreen {
namespace {

using core::SeedRoute;
using fpm::MineRequest;
using fpm::MineResult;
using fpm::PatternSet;
using fpm::TransactionDb;
using serve::MiningService;
using serve::ServeStats;
using testutil::MinePatterns;

uint64_t CounterNow(const char* name) {
  return obs::MetricRegistry::Global().Snapshot().CounterValue(name);
}

/// Serial-replay oracle: a direct storeless mine, the answer every
/// concurrent route must reproduce bit-for-bit (canonical order).
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

/// Spin until `done` returns true or `millis` elapse; true on success.
bool AwaitFor(uint64_t millis, const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(millis);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// M >= 8 worker threads, each replaying its own seeded random script of
// overlapping supports over one service. Differential: every result equals
// the serial-replay oracle. Invariant: the store budget is never exceeded
// at any instant — checked by every worker after every request and by a
// dedicated sampler thread racing the workers. When the CI wiring sets
// GOGREEN_STRESS_REQUEST_LOG / GOGREEN_STRESS_METRICS_JSON, the run also
// emits its wide events and a metrics snapshot for validate_request_log.py
// --concurrent.
TEST(ServeStressTest, ConcurrentRandomizedScriptsMatchSerialReplay) {
  const std::string log_path = GetEnvOrEmpty("GOGREEN_STRESS_REQUEST_LOG");
  if (!log_path.empty()) {
    ASSERT_TRUE(obs::RequestLog::Global().AttachSink(log_path).ok());
  }

  const TransactionDb db = testutil::RandomDb(/*seed=*/7, 1500, 48, 7.0);
  const std::vector<uint64_t> supports = {450, 300, 210, 150, 105, 75};

  // Serial replay first: the oracle answers, computed with no store.
  std::vector<PatternSet> expected;
  expected.reserve(supports.size());
  size_t max_cost = 0;
  for (uint64_t s : supports) {
    expected.push_back(DirectMine(db, s));
    max_cost = std::max(max_cost, serve::PatternSetCost(expected.back()));
  }

  // A budget that always admits any single set but cannot hold all of
  // them: eviction and reinsertion churn constantly under the workers.
  serve::ServiceOptions options;
  options.store.byte_budget = 2 * max_cost + 4096;
  MiningService service(db, "stress", options);
  const size_t budget = service.store().byte_budget();

  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 20;
  const uint64_t requests_before = CounterNow("serve.requests");
  std::atomic<uint64_t> budget_violations{0};
  std::atomic<bool> done{false};

  // Sampler: races the workers, observing the ledger mid-insert.
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (service.store().bytes_in_use() > budget) {
        budget_violations.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(1000 + static_cast<unsigned>(t));
      std::uniform_int_distribution<size_t> pick(0, supports.size() - 1);
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        const size_t i = pick(rng);
        ServeStats stats;
        auto result = service.Mine(MineRequest::At(supports[i]), &stats);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_FALSE(result->partial);
        EXPECT_TRUE(CanonicallyEqual(expected[i], result->patterns))
            << "support " << supports[i] << " via route "
            << core::SeedRouteName(stats.route)
            << (stats.coalesced ? " (coalesced)" : "");
        EXPECT_LE(service.store().bytes_in_use(), budget);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_EQ(budget_violations.load(), 0u)
      << "store byte budget exceeded mid-flight";
  EXPECT_EQ(CounterNow("serve.requests") - requests_before,
            kThreads * kOpsPerThread);
  EXPECT_EQ(service.CoalesceWaitersForTest(), 0u);

  if (!log_path.empty()) {
    obs::RequestLog::Global().DetachSink();
    const std::string metrics_path =
        GetEnvOrEmpty("GOGREEN_STRESS_METRICS_JSON");
    if (!metrics_path.empty()) {
      ASSERT_TRUE(obs::WriteMetricsJson(metrics_path).ok());
    }
  }
}

// The coalescing differential: K threads submit the identical MineRequest
// simultaneously. The leader-hold seam keeps the leader parked until all
// K-1 followers have rendezvoused, so the burst deterministically performs
// exactly one mine: `mine.runs` and `serve.scratch` rise by 1,
// `serve.cache_hits` and `serve.coalesced` by K-1, and all K results are
// identical.
TEST(ServeStressTest, IdenticalBurstCoalescesToOneMine) {
  const TransactionDb db = testutil::RandomDb(/*seed=*/11, 800, 40, 6.0);
  constexpr uint64_t kSupport = 48;
  constexpr size_t kThreads = 8;

  PatternSet oracle = DirectMine(db, kSupport);  // Before the snapshots.

  MiningService service(db, "burst");
  service.SetLeaderHoldForTest([&service] {
    // Rendezvous window: hold the one leader until every follower parks.
    EXPECT_TRUE(AwaitFor(10000, [&service] {
      return service.CoalesceWaitersForTest() + 1 >= kThreads;
    })) << "followers never rendezvoused";
  });

  const uint64_t runs_before = CounterNow("mine.runs");
  const uint64_t scratch_before = CounterNow("serve.scratch");
  const uint64_t hits_before = CounterNow("serve.cache_hits");
  const uint64_t coalesced_before = CounterNow("serve.coalesced");

  std::vector<ServeStats> stats(kThreads);
  std::vector<MineResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto result = service.Mine(MineRequest::At(kSupport), &stats[t]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      results[t] = std::move(result).value();
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly one mine for the whole burst.
  EXPECT_EQ(CounterNow("mine.runs") - runs_before, 1u);
  EXPECT_EQ(CounterNow("serve.scratch") - scratch_before, 1u);
  EXPECT_EQ(CounterNow("serve.cache_hits") - hits_before, kThreads - 1);
  EXPECT_EQ(CounterNow("serve.coalesced") - coalesced_before, kThreads - 1);

  size_t leaders = 0;
  size_t followers = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(CanonicallyEqual(oracle, results[t].patterns))
        << "thread " << t;
    if (stats[t].coalesced) {
      ++followers;
      EXPECT_EQ(stats[t].route, SeedRoute::kExact);
      EXPECT_EQ(stats[t].seed_support, kSupport);
    } else {
      ++leaders;
      EXPECT_EQ(stats[t].route, SeedRoute::kNone);
    }
  }
  EXPECT_EQ(leaders, 1u);
  EXPECT_EQ(followers, kThreads - 1);
}

// A follower with a short RunContext deadline must come back with its own
// partial/deadline outcome while the leader keeps mining — a slow shared
// mine cannot hold a deadline-bound caller hostage.
TEST(ServeStressTest, FollowerDeadlineFiresWhileLeaderKeepsMining) {
  const TransactionDb db = testutil::PaperExampleDb();
  MiningService service(db, "deadline");

  std::atomic<bool> leader_held{false};
  std::atomic<bool> release_leader{false};
  service.SetLeaderHoldForTest([&] {
    leader_held.store(true, std::memory_order_release);
    while (!release_leader.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Leader and follower share a governor class ("gd": deadline-armed), so
  // they coalesce; only the follower's deadline is near.
  std::thread leader_thread([&] {
    RunContext ctx;
    ctx.SetDeadlineAfterMillis(60000);
    MineRequest request = MineRequest::At(2);
    request.run_context = &ctx;
    ServeStats stats;
    auto result = service.Mine(request, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // The deadline-tripped follower may have cached its partial set at the
    // frontier while the leader was held, so the leader's route is free to
    // recycle from it — but its answer must still be complete and its own.
    EXPECT_FALSE(result->partial);
    EXPECT_FALSE(stats.coalesced);
  });
  ASSERT_TRUE(AwaitFor(10000, [&] {
    return leader_held.load(std::memory_order_acquire);
  })) << "leader never reached the hold seam";

  std::thread follower_thread([&] {
    RunContext ctx;
    ctx.SetDeadlineAfterMillis(50);
    MineRequest request = MineRequest::At(2);
    request.run_context = &ctx;
    ServeStats stats;
    auto result = service.Mine(request, &stats);
    // The deadline fired while parked: the follower mined for itself with
    // the tripped context and got the governed partial answer, not the
    // leader's (still unfinished) result.
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->partial);
    EXPECT_EQ(stats.outcome, "partial");
    EXPECT_FALSE(stats.coalesced);
    EXPECT_TRUE(ctx.stopped());
    EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadlineExceeded);
  });
  follower_thread.join();  // Completes while the leader is still held.

  release_leader.store(true, std::memory_order_release);
  leader_thread.join();
}

// A leader killed via the `coalesce.leader` failpoint must not strand its
// followers: the error goes to the dead leader's own caller, each follower
// elects a new leader, and — with the failpoint at probability 1 — every
// thread eventually leads, fails, and returns. Nobody hangs, nobody
// inherits another caller's error silently.
TEST(ServeStressTest, KilledLeaderElectsNewLeaderWithoutStrandingFollowers) {
  const TransactionDb db = testutil::PaperExampleDb();
  MiningService service(db, "killed");
  constexpr size_t kThreads = 6;

  // Hold only the *first* leader until the followers have parked, so the
  // kill provably happens with a full rendezvous in flight.
  std::atomic<bool> first_leader{true};
  service.SetLeaderHoldForTest([&] {
    if (!first_leader.exchange(false)) return;
    EXPECT_TRUE(AwaitFor(10000, [&service] {
      return service.CoalesceWaitersForTest() + 1 >= kThreads;
    })) << "followers never rendezvoused before the kill";
  });

  const uint64_t hits_before = failpoint::HitCount("coalesce.leader");
  const uint64_t errors_before = CounterNow("serve.errors");
  failpoint::ScopedFailpoints fp("coalesce.leader:ioerror");

  std::vector<Status> statuses(kThreads, Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto result = service.Mine(MineRequest::At(2));
      statuses[t] = result.status();
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(statuses[t].code(), StatusCode::kIOError)
        << "thread " << t << ": " << statuses[t].ToString();
  }
  // Every thread led exactly once and died at the seam.
  EXPECT_EQ(failpoint::HitCount("coalesce.leader") - hits_before, kThreads);
  EXPECT_EQ(CounterNow("serve.errors") - errors_before, kThreads);
  EXPECT_EQ(service.CoalesceWaitersForTest(), 0u);
}

}  // namespace
}  // namespace gogreen
