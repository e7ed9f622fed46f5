#include "serve/mining_service.h"

#include <chrono>
#include <utility>
#include <vector>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/run_context.h"
#include "util/status_codes.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gogreen::serve {

namespace {

/// The recycle route's adapted algorithm and the compressor's matcher.
/// Fixed, not options: no caller chooses them.
constexpr core::RecycleAlgo kRecycleAlgo = core::RecycleAlgo::kHMine;
constexpr core::MatcherKind kMatcher = core::MatcherKind::kAuto;

/// Flushes the request into the serve.* counters. `serve.requests` and the
/// per-route counters count only completed (ok or partial) requests, so
/// the four route counters always sum to `serve.requests` exactly — the
/// reconciliation the request-log validator checks. Failures go to
/// `serve.errors` instead.
void RecordRoute(const ServeStats& stats, bool ok) {
  using obs::MetricRegistry;
  static obs::Counter* requests =
      MetricRegistry::Global().GetCounter("serve.requests");
  static obs::Counter* hits =
      MetricRegistry::Global().GetCounter("serve.cache_hits");
  static obs::Counter* filtered =
      MetricRegistry::Global().GetCounter("serve.filter_down");
  static obs::Counter* recycled =
      MetricRegistry::Global().GetCounter("serve.recycled");
  static obs::Counter* scratch =
      MetricRegistry::Global().GetCounter("serve.scratch");
  static obs::Counter* errors =
      MetricRegistry::Global().GetCounter("serve.errors");
  static obs::Histogram* seconds =
      MetricRegistry::Global().GetHistogram("serve.seconds");
  if (!ok) {
    errors->Add(1);
    return;
  }
  requests->Add(1);
  switch (stats.route) {
    case core::SeedRoute::kExact:
      hits->Add(1);
      break;
    case core::SeedRoute::kFilterDown:
      filtered->Add(1);
      break;
    case core::SeedRoute::kRecycle:
      recycled->Add(1);
      break;
    case core::SeedRoute::kNone:
      scratch->Add(1);
      break;
  }
  seconds->Observe(stats.seconds);
}

/// The serve-layer phase spans this request accumulated, from tracer
/// aggregate deltas. The envelope span (serve.request) is excluded; the
/// remaining serve.* spans are disjoint, so their sum approximates the
/// request's wall time from below.
std::vector<std::pair<std::string, double>> ServePhaseDeltas(
    const obs::Tracer::SpanSnapshot& before,
    const obs::Tracer::SpanSnapshot& after) {
  std::vector<std::pair<std::string, double>> phases;
  for (const auto& [name, seconds] :
       obs::Tracer::DeltaSeconds(before, after)) {
    if (name.rfind("serve.", 0) == 0 && name != "serve.request") {
      phases.emplace_back(name, seconds);
    }
  }
  return phases;
}

void RecordCoalesced() {
  static obs::Counter* coalesced =
      obs::MetricRegistry::Global().GetCounter("serve.coalesced");
  coalesced->Add(1);
}

/// Coalesce-key suffix classifying the request's governor: requests only
/// rendezvous within the same class, so an ungoverned request can never
/// adopt the partial result of a deadline- or budget-limited leader.
std::string GovernorClassOf(const RunContext* ctx) {
  if (ctx == nullptr) return "";
  std::string cls = "g";
  if (ctx->has_deadline()) cls += "d";
  if (ctx->memory_budget() > 0) cls += "m";
  return cls;
}

obs::RequestEvent BuildEvent(const obs::RequestContext& rctx,
                             const ServeStats& stats) {
  obs::RequestEvent event;
  event.request_id = rctx.request_id;
  event.dataset = rctx.dataset_id;
  event.min_support = rctx.min_support;
  event.fingerprint = rctx.constraint_fingerprint;
  event.route = core::SeedRouteName(stats.route);
  event.cache_hit = stats.route == core::SeedRoute::kExact;
  event.coalesced = stats.coalesced;
  event.seed_support = stats.seed_support;
  event.evictions = stats.evictions;
  event.image_evictions = stats.image_evictions;
  event.patterns = stats.patterns_returned;
  event.partial = stats.partial;
  event.frontier_support = stats.frontier_support;
  event.outcome = stats.outcome;
  event.seconds = stats.seconds;
  event.bytes_peak = stats.bytes_peak;
  event.threads = stats.threads;
  event.tenant = stats.tenant;
  event.queued_ms = stats.queued_ms;
  event.degraded = stats.degraded;
  event.shed = stats.shed;
  event.phases = stats.phases;
  return event;
}

}  // namespace

MiningService::MiningService(fpm::TransactionDb db, std::string dataset_id,
                             ServiceOptions options)
    : db_(std::move(db)),
      dataset_id_(std::move(dataset_id)),
      options_(options),
      store_(options.store) {}

Result<fpm::MineResult> MiningService::Mine(const fpm::MineRequest& request,
                                            ServeStats* stats_out) {
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t minsup,
                           request.EffectiveMinSupport());
  const bool constrained = request.constraints != nullptr &&
                           request.constraints->NumConstraints() > 0;
  const std::string fingerprint =
      constrained ? request.constraints->Fingerprint() : std::string();

  // Request identity, stamped before any routing so every span, metric
  // delta, and governor outcome below attributes to this id.
  obs::RequestContext rctx;
  rctx.request_id = obs::RequestLog::Global().NextRequestId();
  rctx.dataset_id = dataset_id_;
  rctx.constraint_fingerprint = fingerprint;
  rctx.min_support = minsup;

  // Ungoverned requests still get a context: it carries the request id
  // down the miner/compressor plumbing and collects the byte accounting
  // for the wide event, without arming any limit.
  RunContext local_ctx;
  RunContext* ctx =
      request.run_context != nullptr ? request.run_context : &local_ctx;
  ctx->SetRequestId(rctx.request_id);

  const obs::Tracer::SpanSnapshot spans_before =
      obs::Tracer::Global().AggregateSnapshot();
  const StoreStats store_before = store_.stats();
  ServeStats stats;
  stats.request_id = rctx.request_id;
  stats.tenant = request.tenant;
  stats.queued_ms = request.queued_ms;
  Timer total;
  Result<fpm::MineResult> outcome = [&]() -> Result<fpm::MineResult> {
    // Inner scope so the envelope span has closed (and flushed into the
    // aggregates) before the after-snapshot below.
    GOGREEN_TRACE_SPAN("serve.request");
    // One thread-override install up front; the per-stage sub-requests
    // inherit it (they run on this thread, where the override is visible).
    const ThreadPool::ScopedThreads scoped_threads(request.threads);
    stats.threads = ThreadPool::GlobalThreads();
    return MineCoalesced(minsup, request, fingerprint, ctx, &stats);
  }();
  stats.seconds = total.ElapsedSeconds();
  stats.phases = ServePhaseDeltas(spans_before,
                                  obs::Tracer::Global().AggregateSnapshot());
  const StoreStats store_after = store_.stats();
  stats.evictions = store_after.evictions - store_before.evictions;
  stats.image_evictions =
      store_after.image_evictions - store_before.image_evictions;
  stats.bytes_peak = ctx->bytes_peak();
  if (outcome.ok()) {
    stats.partial = outcome->partial;
    stats.frontier_support = outcome->frontier_support;
    stats.patterns_returned = outcome->patterns.size();
  }
  stats.outcome = OutcomeLabel(
      ClassifyOutcome(outcome.status(), stats.partial, stats.degraded,
                      stats.shed),
      outcome.status().code());
  RecordRoute(stats, outcome.ok());
  obs::RequestLog::Global().Record(BuildEvent(rctx, stats));
  if (stats_out != nullptr) *stats_out = stats;
  return outcome;
}

size_t MiningService::CoalesceWaitersForTest() const {
  MutexLock lock(inflight_mu_);
  size_t waiters = 0;
  for (const auto& [key, flight] : inflight_) {
    InFlight& f = *flight;
    MutexLock flight_lock(f.mu);
    waiters += f.waiters;
  }
  return waiters;
}

Result<fpm::MineResult> MiningService::MineCoalesced(
    uint64_t min_support, const fpm::MineRequest& request,
    const std::string& fingerprint, RunContext* ctx, ServeStats* stats) {
  // Fast path: an exact cached answer needs no rendezvous.
  if (auto hit = LookupExact({dataset_id_, fingerprint, min_support}, stats)) {
    return *std::move(hit);
  }

  // The rendezvous key classifies the governor from the *caller's* context
  // (request.run_context; `ctx` may be the envelope's ungoverned local).
  const std::string key = fingerprint + "\n" + std::to_string(min_support) +
                          "\n" + GovernorClassOf(request.run_context);
  while (true) {
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    {
      MutexLock lock(inflight_mu_);
      std::shared_ptr<InFlight>& slot = inflight_[key];
      if (slot == nullptr) {
        slot = std::make_shared<InFlight>();
        leader = true;
      }
      flight = slot;
    }

    if (leader) {
      if (leader_hold_for_test_) leader_hold_for_test_();
      Result<fpm::MineResult> outcome = [&]() -> Result<fpm::MineResult> {
        // Leader-failure seam: an injected error here kills the leader
        // (its caller sees the error) without touching the followers, who
        // elect a new leader.
        GOGREEN_RETURN_NOT_OK(failpoint::MaybeFail("coalesce.leader"));
        return MineRouted(min_support, request, fingerprint, ctx, stats);
      }();
      // Retire the flight before publishing: requests arriving from here
      // on start a fresh flight instead of adopting a finished one.
      {
        MutexLock lock(inflight_mu_);
        auto it = inflight_.find(key);
        if (it != inflight_.end() && it->second == flight) inflight_.erase(it);
      }
      {
        InFlight& f = *flight;
        MutexLock lock(f.mu);
        f.done = true;
        f.ok = outcome.ok();
        if (outcome.ok()) {
          f.result = *outcome;
        } else {
          f.status = outcome.status();
        }
        f.cv.NotifyAll();
      }
      return outcome;
    }

    // Follower: park on the leader, deadline-aware. The governed context's
    // wakeup hook covers cancellation and budget trips from other threads;
    // the timed wait covers the deadline itself (nobody polls the clock
    // for a parked thread). Lock order: RunContext wake mutex, then
    // flight->mu — so the wakeup is registered before flight->mu is taken
    // and cleared after it is released.
    bool leader_failed = false;
    bool adopted = false;
    fpm::MineResult result;
    {
      GOGREEN_TRACE_SPAN("serve.coalesce_wait");
      RunContext* governed = request.run_context;
      ScopedWakeup wakeup(governed, [flight] {
        MutexLock lock(flight->mu);
        flight->cv.NotifyAll();
      });
      InFlight& f = *flight;
      MutexLock lock(f.mu);
      ++f.waiters;
      while (!f.done && (governed == nullptr || !governed->stopped())) {
        if (governed != nullptr && governed->has_deadline()) {
          if (f.cv.WaitUntil(f.mu, governed->deadline()) ==
              std::cv_status::timeout) {
            // Trip the deadline ourselves — without holding flight->mu,
            // because the trip synchronously invokes the wakeup hook
            // above, which takes it.
            lock.Unlock();
            governed->PollNow();
            lock.Lock();
          }
        } else {
          f.cv.Wait(f.mu);
        }
      }
      --f.waiters;
      if (f.done) {
        if (f.ok) {
          adopted = true;
          result = f.result;
        } else {
          leader_failed = true;
        }
      }
      // Neither done nor failed: our own governor tripped while waiting —
      // fall through to mine with the tripped context below.
    }

    if (adopted) {
      stats->route = core::SeedRoute::kExact;
      stats->seed_support = min_support;
      stats->coalesced = true;
      RecordCoalesced();
      return result;
    }
    if (leader_failed) continue;  // Elect a new leader (maybe us).

    // The follower's own governor tripped. Mining with the already-tripped
    // context yields an immediate exact-at-frontier partial result through
    // the normal governed machinery — the follower's deadline fires even
    // though the leader is still mining.
    return MineRouted(min_support, request, fingerprint, ctx, stats);
  }
}

Result<fpm::MineResult> MiningService::MineRouted(
    uint64_t min_support, const fpm::MineRequest& request,
    const std::string& fingerprint, RunContext* ctx, ServeStats* stats) {
  // Exact hit on the (possibly constrained) key: no mining, no filtering.
  // Checked again after the fast path: a flight that retired in between
  // may have stored this key.
  if (auto hit = LookupExact({dataset_id_, fingerprint, min_support}, stats)) {
    return *std::move(hit);
  }

  // An unconstrained request's key is the support-complete key itself, so
  // only a constrained one still needs that lookup.
  const bool constrained = request.constraints != nullptr &&
                           request.constraints->NumConstraints() > 0;
  GOGREEN_ASSIGN_OR_RETURN(
      fpm::MineResult result,
      MineSupportComplete(min_support, /*lookup=*/constrained, ctx, stats));
  if (constrained) {
    GOGREEN_TRACE_SPAN("serve.constrain");
    result.patterns = request.constraints->Filter(result.patterns);
    // Cache the filtered set under its fingerprint for exact repeats; only
    // a complete-at-minsup set is a valid entry at this key.
    if (!result.partial) {
      store_.Put({dataset_id_, fingerprint, min_support}, result.patterns,
                 db_.NumTransactions());
    }
  }
  return result;
}

std::optional<fpm::MineResult> MiningService::LookupExact(
    const StoreKey& key, ServeStats* stats) {
  GOGREEN_TRACE_SPAN("serve.lookup");
  auto cached = store_.Get(key);
  if (cached == nullptr) return std::nullopt;
  fpm::MineResult result;
  result.patterns = *cached;
  result.frontier_support = key.min_support;
  stats->route = core::SeedRoute::kExact;
  stats->seed_support = key.min_support;
  return result;
}

Result<fpm::MineResult> MiningService::MineSupportComplete(
    uint64_t min_support, bool lookup, RunContext* ctx, ServeStats* stats) {
  const StoreKey key{dataset_id_, "", min_support};
  if (lookup) {
    if (auto hit = LookupExact(key, stats)) return *std::move(hit);
  }

  const core::SeedChoice choice =
      core::SelectSeed(store_.Candidates(dataset_id_, ""), min_support);

  if (choice.route == core::SeedRoute::kFilterDown) {
    const StoreKey seed_key{dataset_id_, "", choice.min_support};
    if (auto seed = store_.Get(seed_key); seed != nullptr) {
      GOGREEN_TRACE_SPAN("serve.filter_down");
      fpm::MineResult result;
      result.patterns = seed->FilterBySupport(min_support);
      result.frontier_support = min_support;
      store_.Put(key, result.patterns, db_.NumTransactions());
      stats->route = core::SeedRoute::kFilterDown;
      stats->seed_support = choice.min_support;
      return result;
    }
    // Evicted between Candidates() and Get(): fall through to scratch.
  }

  if (choice.route == core::SeedRoute::kRecycle) {
    const StoreKey seed_key{dataset_id_, "", choice.min_support};
    Result<fpm::MineResult> recycled =
        MineRecycledFrom(seed_key, min_support, ctx, stats);
    if (recycled.ok() || stats->route == core::SeedRoute::kRecycle) {
      return recycled;
    }
    // Seed vanished under us: fall through to scratch.
  }

  GOGREEN_ASSIGN_OR_RETURN(fpm::MineResult result,
                           MineScratch(min_support, ctx));
  stats->route = core::SeedRoute::kNone;
  stats->seed_support = 0;
  // A governed early stop still yields the exact set at the frontier; that
  // is what gets cached (and what the next relaxation recycles).
  {
    GOGREEN_TRACE_SPAN("serve.store_put");
    store_.Put({dataset_id_, "", result.frontier_support}, result.patterns,
               db_.NumTransactions());
  }
  return result;
}

Result<fpm::MineResult> MiningService::MineRecycledFrom(
    const StoreKey& seed_key, uint64_t min_support, RunContext* ctx,
    ServeStats* stats) {
  std::shared_ptr<const core::CompressedDb> cdb =
      store_.GetCompressed(seed_key);
  if (cdb == nullptr) {
    auto seed = store_.Get(seed_key);
    if (seed == nullptr) {
      // Evicted since selection; the caller falls back to scratch.
      return Status::NotFound("seed " + seed_key.ToString() + " evicted");
    }
    GOGREEN_TRACE_SPAN("serve.compress");
    Timer timer;
    core::CompressionStats cstats;
    core::CompressorOptions copts;
    copts.strategy = options_.strategy;
    copts.matcher = kMatcher;
    copts.run_context = ctx;
    GOGREEN_ASSIGN_OR_RETURN(core::CompressedDb built,
                             core::CompressDatabase(db_, *seed, copts,
                                                    &cstats));
    stats->compress_seconds = timer.ElapsedSeconds();
    stats->compression_ratio = cstats.Ratio();
    cdb = std::make_shared<const core::CompressedDb>(std::move(built));
    store_.PutCompressed(seed_key, cdb);
  }
  // From here on the route is committed: errors below are mining errors,
  // not fall-back-to-scratch conditions.
  stats->route = core::SeedRoute::kRecycle;
  stats->seed_support = seed_key.min_support;
  GOGREEN_TRACE_SPAN("serve.recycle_mine");
  auto miner = core::CreateCompressedMiner(kRecycleAlgo);
  fpm::MineRequest subrequest = fpm::MineRequest::At(min_support);
  subrequest.run_context = ctx;
  GOGREEN_ASSIGN_OR_RETURN(fpm::MineResult result,
                           miner->Mine(*cdb, subrequest));
  store_.Put({dataset_id_, "", result.frontier_support}, result.patterns,
             db_.NumTransactions());
  return result;
}

Result<fpm::MineResult> MiningService::MineScratch(uint64_t min_support,
                                                   RunContext* ctx) {
  GOGREEN_TRACE_SPAN("serve.scratch");
  auto miner = fpm::CreateMiner(options_.base_miner);
  fpm::MineRequest subrequest = fpm::MineRequest::At(min_support);
  subrequest.run_context = ctx;
  return miner->Mine(db_, subrequest);
}

}  // namespace gogreen::serve
