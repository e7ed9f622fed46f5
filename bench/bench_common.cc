#include "bench/bench_common.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "core/disk_recycle.h"
#include "fpm/miner.h"
#include "fpm/partition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gogreen::bench {

namespace {

using core::CompressedDb;
using core::CompressionStats;
using core::CompressionStrategy;
using core::MatcherKind;
using core::RecycleAlgo;
using data::DatasetId;
using data::DatasetSpec;
using fpm::PatternSet;
using fpm::TransactionDb;

struct FamilyInfo {
  const char* baseline_name;
  const char* mcp_name;
  const char* mlp_name;
  fpm::MinerKind baseline;
  RecycleAlgo recycler;
};

FamilyInfo InfoOf(AlgoFamily family) {
  switch (family) {
    case AlgoFamily::kHMine:
      return {"H-Mine", "HM-MCP", "HM-MLP", fpm::MinerKind::kHMine,
              RecycleAlgo::kHMine};
    case AlgoFamily::kFpGrowth:
      return {"FP", "FP-MCP", "FP-MLP", fpm::MinerKind::kFpGrowth,
              RecycleAlgo::kFpGrowth};
    case AlgoFamily::kTreeProjection:
      return {"TP", "TP-MCP", "TP-MLP", fpm::MinerKind::kTreeProjection,
              RecycleAlgo::kTreeProjection};
  }
  return {"?", "?", "?", fpm::MinerKind::kHMine, RecycleAlgo::kHMine};
}

/// Work counters and span seconds observed around one measured run.
struct RunMeasurement {
  double wall_seconds = 0.0;
  double mine_seconds = 0.0;  ///< Span-attributed in-algorithm time.
  size_t patterns = 0;
  uint64_t items_scanned = 0;
  uint64_t projections_built = 0;
};

/// Sums all `mine.*` span aggregates (seconds).
double MineSpanSeconds() {
  double total = 0.0;
  for (const auto& [name, secs] : obs::Tracer::Global().AggregateSeconds()) {
    if (name.rfind("mine.", 0) == 0) total += secs;
  }
  return total;
}

uint64_t CounterNow(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name)->Value();
}

size_t NumPatterns(const PatternSet& patterns) { return patterns.size(); }
size_t NumPatterns(const fpm::MineResult& result) {
  return result.patterns.size();
}

/// Runs a miner, measuring wall time plus registry/span deltas; prints and
/// exits on error.
template <typename Fn>
RunMeasurement Measure(Fn&& fn) {
  RunMeasurement m;
  const uint64_t items0 = CounterNow("mine.items_scanned");
  const uint64_t projs0 = CounterNow("mine.projections_built");
  const double spans0 = MineSpanSeconds();
  Timer timer;
  auto result = fn();
  m.wall_seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  m.patterns = NumPatterns(result.value());
  m.items_scanned = CounterNow("mine.items_scanned") - items0;
  m.projections_built = CounterNow("mine.projections_built") - projs0;
  m.mine_seconds = MineSpanSeconds() - spans0;
  return m;
}

std::string SanitizeFigureTag(const char* figure) {
  std::string tag;
  for (const char* p = figure; *p; ++p) {
    const char c = *p;
    if (std::isalnum(static_cast<unsigned char>(c))) {
      tag += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!tag.empty() && tag.back() != '_') {
      tag += '_';
    }
  }
  while (!tag.empty() && tag.back() == '_') tag.pop_back();
  return tag;
}

std::string JsonPathFor(const char* figure, const BenchOptions& options) {
  if (!options.json_path.empty()) return options.json_path;
  return "BENCH_" + SanitizeFigureTag(figure) + ".json";
}

/// Accumulates one figure's machine-readable document. Rows are emitted as
/// a JSON array under "rows"; scalar context fields are set up front.
class JsonReport {
 public:
  void Field(const char* key, const std::string& value) {
    // Built piecewise: `"\"" + JsonEscape(...) + ...` trips a GCC 12
    // -Wrestrict false positive through the inlined string operator+.
    std::string quoted = "\"";
    quoted += obs::JsonEscape(value);
    quoted += '"';
    Raw(key, quoted);
  }
  void Field(const char* key, double value) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    Raw(key, buf);
  }
  void Field(const char* key, uint64_t value) {
    Raw(key, std::to_string(value));
  }

  void AddRow(const std::string& row_json) { rows_.push_back(row_json); }

  bool WriteTo(const std::string& path, const char* figure) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::ostringstream os;
    os << "{\"figure\":\"" << obs::JsonEscape(figure) << "\"";
    for (const auto& [key, value] : fields_) {
      os << ",\"" << obs::JsonEscape(key) << "\":" << value;
    }
    os << ",\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) os << ",";
      os << rows_[i];
    }
    os << "]}";
    const std::string doc = os.str();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok;
  }

 private:
  void Raw(const char* key, const std::string& value) {
    fields_.emplace_back(key, value);
  }

  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<std::string> rows_;
};

/// One algorithm's cell of a sweep row as a JSON object. `threads` records
/// the pool size the measurement ran with (the mined output is identical at
/// any count, so rows differing only in threads are directly comparable).
std::string RunJson(const char* algorithm, double xi_new,
                    const RunMeasurement& m, double compress_seconds) {
  char buf[440];
  std::snprintf(
      buf, sizeof(buf),
      "{\"algorithm\":\"%s\",\"xi_new\":%.9g,\"threads\":%zu,"
      "\"seconds\":%.9g,\"mine_seconds\":%.9g,\"compress_seconds\":%.9g,"
      "\"patterns\":%zu,\"counters\":{\"mine.items_scanned\":%" PRIu64
      ",\"mine.projections_built\":%" PRIu64 "}}",
      algorithm, xi_new, ThreadPool::GlobalThreads(), m.wall_seconds,
      m.mine_seconds, compress_seconds, m.patterns, m.items_scanned,
      m.projections_built);
  return buf;
}

/// Thread counts to measure: `--threads` list when given, else the single
/// count currently configured for the global pool.
std::vector<unsigned> ThreadSweep(const BenchOptions& options) {
  if (!options.threads.empty()) return options.threads;
  return {static_cast<unsigned>(ThreadPool::GlobalThreads())};
}

/// Restores the global pool size on scope exit so a sweep cannot leak its
/// last thread count into the caller.
class ScopedThreadRestore {
 public:
  ScopedThreadRestore() : original_(ThreadPool::GlobalThreads()) {}
  ~ScopedThreadRestore() { ThreadPool::SetGlobalThreads(original_); }

 private:
  size_t original_;
};

}  // namespace

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      options.json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        options.json_path = argv[++i];
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      // Comma-separated counts ("1,2,4"); malformed entries are skipped so
      // the binaries never fail on a typo, they just measure less.
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const unsigned long v = std::strtoul(p, &end, 10);
        if (end != p && v >= 1 && v <= 1024) {
          options.threads.push_back(static_cast<unsigned>(v));
        }
        if (end == nullptr || *end == '\0') break;
        p = (end == p) ? p + 1 : end + 1;
      }
    }
  }
  return options;
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  if (seconds < 0.01) {
    std::snprintf(buf, sizeof(buf), "%.4fs", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  }
  return buf;
}

void PrintHeader(const char* figure, const char* title) {
  std::printf("== %s: %s ==\n", figure, title);
}

int RunRuntimeFigure(const char* figure, DatasetId dataset, AlgoFamily family,
                     bool log_scale_note, const BenchOptions& options) {
  const DatasetSpec& spec = data::GetDatasetSpec(dataset);
  const FamilyInfo info = InfoOf(family);
  const BenchScale scale = GetBenchScale();

  // Phase attribution (compress vs. mine) comes from the obs spans; the
  // spans are coarse (one per run), so keeping the tracer on for the whole
  // figure costs nothing measurable.
  obs::Tracer::Global().Enable(/*record_events=*/false);

  char title[256];
  std::snprintf(title, sizeof(title),
                "%s (%s) — %s family, runtime vs xi_new%s", spec.paper_name,
                spec.name, info.baseline_name,
                log_scale_note ? " [paper plots log scale]" : "");
  PrintHeader(figure, title);

  auto db_result = data::MakeDataset(dataset, scale);
  if (!db_result.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 db_result.status().ToString().c_str());
    return 1;
  }
  const TransactionDb db = std::move(db_result).value();

  // Phase 0: the earlier mining round whose output we recycle.
  const uint64_t old_sup =
      fpm::AbsoluteSupport(spec.xi_old, db.NumTransactions());
  Timer timer;
  auto base_miner = fpm::CreateMiner(info.baseline);
  auto fp_old_result = base_miner->Mine(db, fpm::MineRequest::At(old_sup));
  if (!fp_old_result.ok()) {
    std::fprintf(stderr, "xi_old mine: %s\n",
                 fp_old_result.status().ToString().c_str());
    return 1;
  }
  const PatternSet fp_old = std::move(fp_old_result->patterns);
  const double old_mine_secs = timer.ElapsedSeconds();

  // Phase 1: compression with both strategies, span-timed.
  CompressionStats mcp_stats;
  CompressionStats mlp_stats;
  const double compress_span0 =
      obs::Tracer::Global().SecondsFor("compress");
  auto mcp_result = core::CompressDatabase(
      db, fp_old, {CompressionStrategy::kMcp, MatcherKind::kAuto},
      &mcp_stats);
  const double mcp_span = obs::Tracer::Global().SecondsFor("compress");
  auto mlp_result = core::CompressDatabase(
      db, fp_old, {CompressionStrategy::kMlp, MatcherKind::kAuto},
      &mlp_stats);
  const double mlp_span = obs::Tracer::Global().SecondsFor("compress");
  if (!mcp_result.ok() || !mlp_result.ok()) {
    const Status& bad =
        mcp_result.ok() ? mlp_result.status() : mcp_result.status();
    std::fprintf(stderr, "compression (%s): %s\n",
                 mcp_result.ok() ? "mlp" : "mcp", bad.ToString().c_str());
    return 1;
  }
  const double compress_mcp_secs = mcp_span - compress_span0;
  const double compress_mlp_secs = mlp_span - mcp_span;
  const CompressedDb cdb_mcp = std::move(mcp_result).value();
  const CompressedDb cdb_mlp = std::move(mlp_result).value();

  std::printf(
      "dataset=%s scale=%s tuples=%zu avg_len=%.1f xi_old=%.4g%% "
      "(mined in %s, %zu patterns, max len %zu)\n",
      spec.name, BenchScaleName(scale), db.NumTransactions(), db.AvgLength(),
      spec.xi_old * 100, FormatSeconds(old_mine_secs).c_str(), fp_old.size(),
      fp_old.MaxLength());
  std::printf(
      "phase I (compress, spans): MCP ratio=%.3f time=%s | MLP ratio=%.3f "
      "time=%s\n",
      mcp_stats.Ratio(), FormatSeconds(compress_mcp_secs).c_str(),
      mlp_stats.Ratio(), FormatSeconds(compress_mlp_secs).c_str());
  JsonReport report;
  report.Field("dataset", std::string(spec.name));
  report.Field("scale", std::string(BenchScaleName(scale)));
  report.Field("tuples", static_cast<uint64_t>(db.NumTransactions()));
  report.Field("xi_old", spec.xi_old);
  report.Field("old_mine_seconds", old_mine_secs);
  report.Field("old_patterns", static_cast<uint64_t>(fp_old.size()));
  report.Field("compress_mcp_seconds", compress_mcp_secs);
  report.Field("compress_mlp_seconds", compress_mlp_secs);
  report.Field("compress_mcp_ratio", mcp_stats.Ratio());
  report.Field("compress_mlp_ratio", mlp_stats.Ratio());

  const std::vector<unsigned> thread_sweep = ThreadSweep(options);
  report.Field("threads", static_cast<uint64_t>(thread_sweep.front()));
  ScopedThreadRestore restore_threads;

  double base_total = 0.0;
  double mcp_total = 0.0;
  double mlp_total = 0.0;
  bool counts_agree = true;
  for (const unsigned threads : thread_sweep) {
    if (!options.threads.empty()) ThreadPool::SetGlobalThreads(threads);
    if (thread_sweep.size() > 1) std::printf("-- threads=%u --\n", threads);
    std::printf("%-9s %12s %12s %12s %11s %11s %10s\n", "xi_new",
                info.baseline_name, info.mcp_name, info.mlp_name,
                "speedup-MCP", "speedup-MLP", "#patterns");
    for (const double xi : spec.xi_new_sweep) {
      const uint64_t sup = fpm::AbsoluteSupport(xi, db.NumTransactions());

      const RunMeasurement base = Measure([&] {
        auto miner = fpm::CreateMiner(info.baseline);
        return miner->Mine(db, fpm::MineRequest::At(sup));
      });
      const RunMeasurement mcp = Measure([&] {
        auto miner = core::CreateCompressedMiner(info.recycler);
        return miner->Mine(cdb_mcp, fpm::MineRequest::At(sup));
      });
      const RunMeasurement mlp = Measure([&] {
        auto miner = core::CreateCompressedMiner(info.recycler);
        return miner->Mine(cdb_mlp, fpm::MineRequest::At(sup));
      });

      if (base.patterns != mcp.patterns || base.patterns != mlp.patterns) {
        counts_agree = false;
      }
      base_total += base.mine_seconds;
      mcp_total += mcp.mine_seconds;
      mlp_total += mlp.mine_seconds;
      std::printf("%-8.4g%% %12s %12s %12s %10.1fx %10.1fx %10zu\n",
                  xi * 100, FormatSeconds(base.wall_seconds).c_str(),
                  FormatSeconds(mcp.wall_seconds).c_str(),
                  FormatSeconds(mlp.wall_seconds).c_str(),
                  mcp.wall_seconds > 0 ? base.wall_seconds / mcp.wall_seconds
                                       : 0.0,
                  mlp.wall_seconds > 0 ? base.wall_seconds / mlp.wall_seconds
                                       : 0.0,
                  base.patterns);
      std::fflush(stdout);

      if (options.json) {
        report.AddRow(RunJson(info.baseline_name, xi, base, 0.0));
        report.AddRow(RunJson(info.mcp_name, xi, mcp, compress_mcp_secs));
        report.AddRow(RunJson(info.mlp_name, xi, mlp, compress_mlp_secs));
      }
    }
  }
  std::printf(
      "phase II (mine, spans): %s %s | %s %s | %s %s\n", info.baseline_name,
      FormatSeconds(base_total).c_str(), info.mcp_name,
      FormatSeconds(mcp_total).c_str(), info.mlp_name,
      FormatSeconds(mlp_total).c_str());
  std::printf("result check: %s\n\n",
              counts_agree ? "pattern counts agree across all variants"
                           : "MISMATCH in pattern counts (BUG)");

  if (options.json &&
      !report.WriteTo(JsonPathFor(figure, options), figure)) {
    return 1;
  }
  return counts_agree ? 0 : 2;
}

int RunMemoryLimitFigure(const char* figure, DatasetId dataset,
                         bool log_scale_note, const BenchOptions& options) {
  const DatasetSpec& spec = data::GetDatasetSpec(dataset);
  const BenchScale scale = GetBenchScale();

  obs::Tracer::Global().Enable(/*record_events=*/false);

  char title[256];
  std::snprintf(title, sizeof(title),
                "%s (%s) — memory-limited H-Mine vs HM-MCP%s",
                spec.paper_name, spec.name,
                log_scale_note ? " [paper plots log scale]" : "");
  PrintHeader(figure, title);

  auto db_result = data::MakeDataset(dataset, scale);
  if (!db_result.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 db_result.status().ToString().c_str());
    return 1;
  }
  const TransactionDb db = std::move(db_result).value();

  // The paper limits memory to 4MB / 8MB against full-size datasets; scale
  // the budgets with the dataset so the limit still bites.
  const double fraction =
      static_cast<double>(data::DatasetTransactions(dataset, scale)) /
      static_cast<double>(
          data::DatasetTransactions(dataset, BenchScale::kFull));
  const size_t limit_lo = static_cast<size_t>(4.0 * (1 << 20) * fraction);
  const size_t limit_hi = static_cast<size_t>(8.0 * (1 << 20) * fraction);

  const uint64_t old_sup =
      fpm::AbsoluteSupport(spec.xi_old, db.NumTransactions());
  auto fp_miner = fpm::CreateMiner(fpm::MinerKind::kHMine);
  auto fp_old = fp_miner->Mine(db, fpm::MineRequest::At(old_sup));
  if (!fp_old.ok()) {
    std::fprintf(stderr, "xi_old mine: %s\n",
                 fp_old.status().ToString().c_str());
    return 1;
  }
  auto cdb_result = core::CompressDatabase(
      db, fp_old->patterns, {CompressionStrategy::kMcp, MatcherKind::kAuto});
  if (!cdb_result.ok()) {
    std::fprintf(stderr, "compression: %s\n",
                 cdb_result.status().ToString().c_str());
    return 1;
  }
  const CompressedDb cdb = std::move(cdb_result).value();

  std::printf(
      "dataset=%s scale=%s tuples=%zu xi_old=%.4g%% limits=%.2fMB/%.2fMB "
      "(paper: 4MB/8MB at full scale)\n",
      spec.name, BenchScaleName(scale), db.NumTransactions(),
      spec.xi_old * 100, static_cast<double>(limit_lo) / (1 << 20),
      static_cast<double>(limit_hi) / (1 << 20));
  std::printf("%-9s %14s %14s %14s %14s %10s\n", "xi_new", "H-Mine(loM)",
              "HM-MCP(loM)", "H-Mine(hiM)", "HM-MCP(hiM)", "#patterns");

  JsonReport report;
  report.Field("dataset", std::string(spec.name));
  report.Field("scale", std::string(BenchScaleName(scale)));
  report.Field("tuples", static_cast<uint64_t>(db.NumTransactions()));
  report.Field("xi_old", spec.xi_old);
  report.Field("limit_lo_bytes", static_cast<uint64_t>(limit_lo));
  report.Field("limit_hi_bytes", static_cast<uint64_t>(limit_hi));

  // Memory-limited runs honour a single --threads value (no sweep: the
  // partitioned path is dominated by spill I/O, not mining parallelism).
  ScopedThreadRestore restore_threads;
  if (!options.threads.empty()) {
    ThreadPool::SetGlobalThreads(options.threads.front());
  }
  report.Field("threads",
               static_cast<uint64_t>(ThreadPool::GlobalThreads()));

  const std::string tmp = TempDir();
  bool counts_agree = true;
  for (const double xi : spec.xi_new_sweep) {
    const uint64_t sup = fpm::AbsoluteSupport(xi, db.NumTransactions());
    const RunMeasurement hm_lo = Measure(
        [&] { return fpm::MineHMineMemoryLimited(db, sup, limit_lo, tmp); });
    const RunMeasurement rc_lo = Measure([&] {
      return core::MineRecycleHMMemoryLimited(cdb, sup, limit_lo, tmp);
    });
    const RunMeasurement hm_hi = Measure(
        [&] { return fpm::MineHMineMemoryLimited(db, sup, limit_hi, tmp); });
    const RunMeasurement rc_hi = Measure([&] {
      return core::MineRecycleHMMemoryLimited(cdb, sup, limit_hi, tmp);
    });
    if (hm_lo.patterns != rc_lo.patterns ||
        hm_lo.patterns != hm_hi.patterns ||
        hm_lo.patterns != rc_hi.patterns) {
      counts_agree = false;
    }
    std::printf("%-8.4g%% %14s %14s %14s %14s %10zu\n", xi * 100,
                FormatSeconds(hm_lo.wall_seconds).c_str(),
                FormatSeconds(rc_lo.wall_seconds).c_str(),
                FormatSeconds(hm_hi.wall_seconds).c_str(),
                FormatSeconds(rc_hi.wall_seconds).c_str(), hm_lo.patterns);
    std::fflush(stdout);

    if (options.json) {
      report.AddRow(RunJson("H-Mine(loM)", xi, hm_lo, 0.0));
      report.AddRow(RunJson("HM-MCP(loM)", xi, rc_lo, 0.0));
      report.AddRow(RunJson("H-Mine(hiM)", xi, hm_hi, 0.0));
      report.AddRow(RunJson("HM-MCP(hiM)", xi, rc_hi, 0.0));
    }
  }
  std::printf("result check: %s\n\n",
              counts_agree ? "pattern counts agree across all variants"
                           : "MISMATCH in pattern counts (BUG)");

  if (options.json &&
      !report.WriteTo(JsonPathFor(figure, options), figure)) {
    return 1;
  }
  return counts_agree ? 0 : 2;
}

int RunThreadScalingFigure(const char* figure, DatasetId dataset,
                           AlgoFamily family, const BenchOptions& options) {
  const DatasetSpec& spec = data::GetDatasetSpec(dataset);
  const FamilyInfo info = InfoOf(family);
  const BenchScale scale = GetBenchScale();

  obs::Tracer::Global().Enable(/*record_events=*/false);

  char title[256];
  std::snprintf(title, sizeof(title),
                "%s (%s) — %s family, runtime vs threads", spec.paper_name,
                spec.name, info.baseline_name);
  PrintHeader(figure, title);

  auto db_result = data::MakeDataset(dataset, scale);
  if (!db_result.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 db_result.status().ToString().c_str());
    return 1;
  }
  const TransactionDb db = std::move(db_result).value();

  // Fix xi_new at the hardest (lowest) support of the sweep: that is where
  // the mining tree is deepest and parallel fan-out has work to hide.
  const double xi =
      *std::min_element(spec.xi_new_sweep.begin(), spec.xi_new_sweep.end());
  const uint64_t sup = fpm::AbsoluteSupport(xi, db.NumTransactions());
  const uint64_t old_sup =
      fpm::AbsoluteSupport(spec.xi_old, db.NumTransactions());

  auto base_miner = fpm::CreateMiner(info.baseline);
  auto fp_old_result = base_miner->Mine(db, fpm::MineRequest::At(old_sup));
  if (!fp_old_result.ok()) {
    std::fprintf(stderr, "xi_old mine: %s\n",
                 fp_old_result.status().ToString().c_str());
    return 1;
  }
  const PatternSet fp_old = std::move(fp_old_result->patterns);
  auto mcp_result = core::CompressDatabase(
      db, fp_old, {CompressionStrategy::kMcp, MatcherKind::kAuto});
  if (!mcp_result.ok()) {
    std::fprintf(stderr, "compression: %s\n",
                 mcp_result.status().ToString().c_str());
    return 1;
  }
  const CompressedDb cdb = std::move(mcp_result).value();

  std::vector<unsigned> sweep = options.threads;
  if (sweep.empty()) sweep = {1, 2, 4, 8};

  std::printf(
      "dataset=%s scale=%s tuples=%zu xi_old=%.4g%% xi_new=%.4g%% "
      "(hardware threads: %u)\n",
      spec.name, BenchScaleName(scale), db.NumTransactions(),
      spec.xi_old * 100, xi * 100,
      static_cast<unsigned>(ThreadPool::DefaultThreads()));
  std::printf("%-8s %12s %11s %12s %11s %10s\n", "threads",
              info.baseline_name, "scaling", info.mcp_name, "scaling",
              "#patterns");

  JsonReport report;
  report.Field("dataset", std::string(spec.name));
  report.Field("scale", std::string(BenchScaleName(scale)));
  report.Field("tuples", static_cast<uint64_t>(db.NumTransactions()));
  report.Field("xi_old", spec.xi_old);
  report.Field("xi_new", xi);
  report.Field("hardware_threads",
               static_cast<uint64_t>(ThreadPool::DefaultThreads()));

  ScopedThreadRestore restore_threads;
  RunMeasurement base_ref;
  RunMeasurement mcp_ref;
  bool counts_agree = true;
  // Same work at every thread count: a miner's counters may not move.
  const auto same_work = [](const RunMeasurement& a, const RunMeasurement& b) {
    return a.items_scanned == b.items_scanned &&
           a.projections_built == b.projections_built;
  };
  for (size_t i = 0; i < sweep.size(); ++i) {
    ThreadPool::SetGlobalThreads(sweep[i]);
    const RunMeasurement base = Measure([&] {
      auto miner = fpm::CreateMiner(info.baseline);
      return miner->Mine(db, fpm::MineRequest::At(sup));
    });
    const RunMeasurement mcp = Measure([&] {
      auto miner = core::CreateCompressedMiner(info.recycler);
      return miner->Mine(cdb, fpm::MineRequest::At(sup));
    });
    if (i == 0) {
      base_ref = base;
      mcp_ref = mcp;
    }
    // Output is guaranteed bit-identical at any thread count; the pattern
    // counts and work counters double-check that here, outside the
    // unit-test harness.
    if (base.patterns != base_ref.patterns ||
        mcp.patterns != base_ref.patterns || !same_work(base, base_ref) ||
        !same_work(mcp, mcp_ref)) {
      counts_agree = false;
    }
    std::printf("%-8u %12s %10.2fx %12s %10.2fx %10zu\n", sweep[i],
                FormatSeconds(base.wall_seconds).c_str(),
                base.wall_seconds > 0
                    ? base_ref.wall_seconds / base.wall_seconds
                    : 0.0,
                FormatSeconds(mcp.wall_seconds).c_str(),
                mcp.wall_seconds > 0 ? mcp_ref.wall_seconds / mcp.wall_seconds
                                     : 0.0,
                base.patterns);
    std::fflush(stdout);

    if (options.json) {
      report.AddRow(RunJson(info.baseline_name, xi, base, 0.0));
      report.AddRow(RunJson(info.mcp_name, xi, mcp, 0.0));
    }
  }
  std::printf("result check: %s\n\n",
              counts_agree
                  ? "pattern counts and work counters agree across all "
                    "thread counts"
                  : "MISMATCH in pattern counts or work counters across "
                    "threads (BUG)");

  if (options.json &&
      !report.WriteTo(JsonPathFor(figure, options), figure)) {
    return 1;
  }
  return counts_agree ? 0 : 2;
}

}  // namespace gogreen::bench
