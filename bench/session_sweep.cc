// Serving-layer benchmark (not a paper figure): drives a MiningService
// through each dataset's relax-support sweep the way a session would —
// mine at xi_old, relax through the xi_new sweep (recycle chain), re-query
// xi_old (exact hit), then query between two cached thresholds
// (filter-down) — and reports the per-route timings. This is the service
// shape of the paper's Figures 9-20 sweeps: the same thresholds, but every
// answer after the first is served from the pattern store.
//
// `--json [path]` additionally writes BENCH_session_sweep.json with one row
// per request: dataset, support, route, wall seconds, compression seconds,
// compression ratio, and the pattern count.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/seed_selection.h"
#include "data/datasets.h"
#include "fpm/miner.h"
#include "serve/mining_service.h"
#include "util/status.h"

namespace gogreen::bench {
namespace {

struct SweepRow {
  std::string dataset;
  double xi = 0.0;
  uint64_t min_support = 0;
  std::string route;
  double seconds = 0.0;
  double compress_seconds = 0.0;
  double ratio = 1.0;
  uint64_t patterns = 0;
};

Status ServeOne(serve::MiningService& service, double xi,
                uint64_t min_support, std::vector<SweepRow>* rows) {
  SweepRow row;
  row.dataset = service.dataset_id();
  row.xi = xi;
  row.min_support = min_support;
  serve::ServeStats stats;
  GOGREEN_RETURN_NOT_OK(
      service.Mine(fpm::MineRequest::At(min_support), &stats).status());
  row.route = core::SeedRouteName(stats.route);
  row.seconds = stats.seconds;
  row.compress_seconds = stats.compress_seconds;
  row.ratio = stats.compression_ratio;
  row.patterns = stats.patterns_returned;
  rows->push_back(row);
  std::printf("  %-14s xi=%-7.4g support=%-8" PRIu64
              " route=%-11s patterns=%-8" PRIu64 " %s\n",
              row.dataset.c_str(), xi, min_support, row.route.c_str(),
              row.patterns, FormatSeconds(row.seconds).c_str());
  return Status::OK();
}

Status SweepDataset(data::DatasetId id, std::vector<SweepRow>* rows) {
  const data::DatasetSpec& spec = data::GetDatasetSpec(id);
  GOGREEN_ASSIGN_OR_RETURN(fpm::TransactionDb db,
                           data::MakeDataset(id, GetBenchScale()));
  const size_t n = db.NumTransactions();
  serve::MiningService service(std::move(db), spec.name);

  // The paper's sweep as a session: tight first, then relax step by step.
  GOGREEN_RETURN_NOT_OK(
      ServeOne(service, spec.xi_old, fpm::AbsoluteSupport(spec.xi_old, n),
               rows));
  for (const double xi : spec.xi_new_sweep) {
    GOGREEN_RETURN_NOT_OK(
        ServeOne(service, xi, fpm::AbsoluteSupport(xi, n), rows));
  }
  // Re-query the first threshold: an exact hit off the store.
  GOGREEN_RETURN_NOT_OK(
      ServeOne(service, spec.xi_old, fpm::AbsoluteSupport(spec.xi_old, n),
               rows));
  // A support between the two tightest cached thresholds: filter-down.
  const uint64_t hi = fpm::AbsoluteSupport(spec.xi_old, n);
  const uint64_t lo = fpm::AbsoluteSupport(spec.xi_new_sweep.front(), n);
  const uint64_t mid = (hi + lo) / 2;
  if (mid > lo && mid < hi) {
    GOGREEN_RETURN_NOT_OK(
        ServeOne(service, static_cast<double>(mid) / static_cast<double>(n),
                 mid, rows));
  }
  return Status::OK();
}

std::string RowJson(const SweepRow& row) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"dataset\":\"%s\",\"xi\":%.9g,\"min_support\":%" PRIu64
                ",\"route\":\"%s\",\"seconds\":%.9g,"
                "\"compress_seconds\":%.9g,\"compression_ratio\":%.6g,"
                "\"patterns\":%" PRIu64 "}",
                row.dataset.c_str(), row.xi, row.min_support,
                row.route.c_str(), row.seconds, row.compress_seconds,
                row.ratio, row.patterns);
  return buf;
}

int RunSessionSweep(const BenchOptions& options) {
  PrintHeader("session sweep",
              "Per-route service timings over the paper's relax-support "
              "sweeps");
  std::vector<SweepRow> rows;
  for (const data::DatasetId id : data::kAllDatasets) {
    const Status status = SweepDataset(id, &rows);
    if (!status.ok()) {
      std::fprintf(stderr, "session sweep failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  // Per-route aggregate: the serving story in four numbers.
  struct RouteAgg {
    const char* route;
    uint64_t requests = 0;
    double seconds = 0.0;
  };
  RouteAgg aggs[] = {{"none"}, {"recycle"}, {"filter-down"}, {"exact"}};
  for (const SweepRow& row : rows) {
    for (RouteAgg& agg : aggs) {
      if (row.route == std::string(agg.route)) {
        ++agg.requests;
        agg.seconds += row.seconds;
      }
    }
  }
  std::printf("\nper-route totals:\n");
  for (const RouteAgg& agg : aggs) {
    std::printf("  %-11s %3" PRIu64 " requests  %s\n", agg.route,
                agg.requests, FormatSeconds(agg.seconds).c_str());
  }

  if (options.json) {
    const std::string path = options.json_path.empty()
                                 ? "BENCH_session_sweep.json"
                                 : options.json_path;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::string doc = "{\"figure\":\"session sweep\",\"scale\":\"";
    doc += BenchScaleName(GetBenchScale());
    doc += "\",\"rows\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) doc += ',';
      doc += RowJson(rows[i]);
    }
    doc += "]}";
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    if (!ok) return 1;
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace gogreen::bench

int main(int argc, char** argv) {
  return gogreen::bench::RunSessionSweep(
      gogreen::bench::ParseBenchOptions(argc, argv));
}
