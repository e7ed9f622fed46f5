#include "serve/wire_service.h"

#include <sstream>
#include <utility>

#include "core/seed_selection.h"
#include "obs/export.h"
#include "util/run_context.h"
#include "util/status_codes.h"

namespace gogreen::serve {

namespace {

/// Copies the ServeStats view of one finished request onto the response.
void FillFromStats(const ServeStats& stats, net::WireResponse* resp) {
  resp->route = core::SeedRouteName(stats.route);
  resp->seed_support = stats.seed_support;
  resp->coalesced = stats.coalesced;
  resp->degraded = stats.degraded;
  resp->shed = stats.shed;
  resp->retry_after_ms = stats.retry_after_ms;
  resp->seconds = stats.seconds;
  resp->compress_seconds = stats.compress_seconds;
  resp->compression_ratio = stats.compression_ratio;
  resp->bytes_peak = stats.bytes_peak;
  resp->threads = stats.threads;
  resp->evictions = stats.evictions;
  resp->request_id = stats.request_id;
  resp->queued_ms = stats.queued_ms;
  resp->tenant = stats.tenant;
}

}  // namespace

std::string FormatMineLine(const net::WireResponse& resp) {
  std::ostringstream out;
  out << "mined support=" << resp.min_support << " route=" << resp.route
      << " seed=" << resp.seed_support << " patterns=" << resp.patterns
      << " seconds=" << resp.seconds
      << " partial=" << (resp.partial ? 1 : 0);
  if (resp.partial) out << " frontier=" << resp.frontier_support;
  out << "\n";
  return out.str();
}

std::string FormatStatsLine(const ServeStats& stats) {
  std::ostringstream out;
  out << "last: route=" << core::SeedRouteName(stats.route)
      << " seed=" << stats.seed_support
      << " patterns=" << stats.patterns_returned
      << " seconds=" << stats.seconds
      << " compress_seconds=" << stats.compress_seconds
      << " ratio=" << stats.compression_ratio
      << " partial=" << (stats.partial ? 1 : 0)
      // Appended fields only (scripts grep the prefix above): the wide-
      // event view of the same request.
      << " request=" << stats.request_id << " threads=" << stats.threads
      << " bytes_peak=" << stats.bytes_peak
      << " evictions=" << stats.evictions
      << " outcome=" << (stats.outcome.empty() ? "none" : stats.outcome)
      << " coalesced=" << (stats.coalesced ? 1 : 0)
      << " tenant=" << (stats.tenant.empty() ? "-" : stats.tenant)
      << " queued_ms=" << stats.queued_ms
      << " degraded=" << (stats.degraded ? 1 : 0)
      << " shed=" << (stats.shed ? 1 : 0) << "\n";
  return out.str();
}

std::string FormatStoreLine(const PatternStore& store) {
  const StoreStats stats = store.stats();
  std::ostringstream out;
  out << "store: entries=" << stats.entries
      << " images=" << stats.compressed_images
      << " bytes=" << stats.bytes_in_use << "/" << stats.byte_budget
      << " evictions=" << stats.evictions
      << " image_evictions=" << stats.image_evictions << "\n";
  return out.str();
}

WireSession::WireSession(MiningService& service,
                         AdmissionController* admission, std::string tenant)
    : service_(service),
      admission_(admission),
      tenant_(std::move(tenant)) {}

net::WireResponse WireSession::Handle(const net::WireRequest& request) {
  net::WireResponse resp;
  resp.id = request.id;
  switch (request.verb) {
    case net::Verb::kMine:
      return HandleMine(request);
    case net::Verb::kStats:
      resp.body = FormatStatsLine(last_);
      return resp;
    case net::Verb::kMetrics:
      resp.body = obs::MetricsProm();
      return resp;
    case net::Verb::kStore:
      resp.body = FormatStoreLine(service_.store());
      return resp;
    case net::Verb::kPing:
      return resp;
    case net::Verb::kTenant:
      tenant_ = request.tenant;  // Empty rebinds to the anonymous tenant.
      resp.tenant = tenant_;
      return resp;
  }
  return net::MakeErrorResponse(
      request.id, Status::InvalidArgument("unknown verb"));
}

net::WireResponse WireSession::HandleMine(const net::WireRequest& request) {
  const auto minsup_or =
      fpm::ResolveSupport(request.support, service_.db().NumTransactions());
  if (!minsup_or.ok()) {
    return net::MakeErrorResponse(request.id, minsup_or.status());
  }
  const uint64_t minsup = minsup_or.value();

  RunContext ctx;
  fpm::MineRequest mine = fpm::MineRequest::At(minsup);
  mine.threads = static_cast<size_t>(request.threads);
  mine.tenant = request.tenant.empty() ? tenant_ : request.tenant;
  if (request.deadline_ms > 0 || request.budget_mb > 0) {
    if (request.deadline_ms > 0) {
      ctx.SetDeadlineAfterMillis(static_cast<int64_t>(request.deadline_ms));
    }
    if (request.budget_mb > 0) {
      ctx.SetMemoryBudget(static_cast<size_t>(request.budget_mb) << 20);
    }
    mine.run_context = &ctx;
  }

  ServeStats stats;
  const auto result = admission_ != nullptr
                          ? admission_->Mine(mine, &stats)
                          : service_.Mine(mine, &stats);

  net::WireResponse resp;
  resp.id = request.id;
  FillFromStats(stats, &resp);
  resp.min_support = minsup;
  // The service already classified this request (ServeStats::outcome is
  // filled on every path, including shed and injected errors); the wire
  // outcome is that label, parsed back into the typed enum.
  if (!stats.outcome.empty()) {
    ParseOutcomeLabel(stats.outcome, &resp.outcome, &resp.error_code);
  }
  if (!result.ok()) {
    if (stats.outcome.empty()) {
      resp.outcome = stats.shed ? Outcome::kShed : Outcome::kError;
      resp.error_code = result.status().code();
    }
    resp.error = result.status().message();
    return resp;
  }
  last_ = stats;
  resp.patterns = result->patterns.size();
  resp.partial = result->partial;
  resp.frontier_support = result->frontier_support;
  return resp;
}

}  // namespace gogreen::serve
