// gogreen — command-line front end for the library.
//
//   gogreen mine     -i data.dat -s 0.02 [-a h-mine] [-o patterns.bin]
//   gogreen recycle  -i data.dat -p patterns.bin -s 0.01 [--strategy MCP]
//   gogreen compress -i data.dat -p patterns.bin -o data.cdb
//   gogreen rules    -i data.dat -p patterns.bin [-c 0.6]
//   gogreen summary  -p patterns.bin [--closed|--maximal]
//   gogreen generate --kind quest|dense -n 100000 -o data.dat [...]
//   gogreen stats    -i data.dat
//   gogreen session  -i data.dat [--script cmds.txt] [--store-dir dir]
//                    (interactive REPL on a tty; batch mode otherwise —
//                    see serve/session.h for the command language)
//   gogreen serve    -i data.dat (--socket path | --port n) [--store-dir d]
//                    (multi-tenant daemon speaking the framed wire
//                    protocol of net/wire.h; SIGINT/SIGTERM drain
//                    gracefully and persist the store)
//   gogreen client   (--socket path | --port n) [--mine s | --ping |
//                    --stats | --store | --script cmds.txt]
//                    (one-shot queries or the session command language,
//                    executed against a daemon instead of in-process)
//
// Every subcommand also accepts the observability flags:
//   --metrics-json <path>   write a counters/gauges/histograms/spans JSON
//                           snapshot of the run (obs::MetricsJson)
//   --stats-json <path>     alias of --metrics-json (dump-on-exit naming)
//   --stats-prom <path>     write the same state in Prometheus text
//                           exposition format (obs::MetricsProm)
//   --trace <path>          write Chrome trace_event JSON of the phase
//                           spans (open at chrome://tracing)
//   --request-log <path>    append one JSON line per served MineRequest
//                           (session subcommand; obs::RequestLog schema)
// and the run-governor flags (honored by mine/recycle):
//   --timeout-ms <n>        stop mining after n milliseconds and return the
//                           partial (but exact-at-frontier) pattern set
//   --mem-limit-mb <n>      budget for mining scratch structures
//
// Exit codes follow sysexits where one fits: 0 success, 64 usage error,
// 65 malformed input data, 70 internal error, 74 IO error, 75 partial
// result (governor stopped the run early; stdout names the frontier).
//
// Patterns files use the binary format of fpm/pattern_io.h (or the FIMI
// text format when the file name ends in .txt).

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "data/dat_io.h"
#include "data/dense_gen.h"
#include "data/quest_gen.h"
#include "fpm/miner.h"
#include "fpm/pattern_io.h"
#include "fpm/rules.h"
#include "fpm/summarize.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/export.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/mining_service.h"
#include "serve/session.h"
#include "serve/wire_service.h"
#include "util/run_context.h"
#include "util/status_codes.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using gogreen::Result;
using gogreen::Status;
using gogreen::StatusCode;
using gogreen::Timer;
// Exit codes and the Status -> sysexits mapping live in
// util/status_codes.h, shared with the session driver and `client`.
using gogreen::kExitUsage;

/// Set when an input file opened fine but its *content* was malformed, so
/// the InvalidArgument maps to EX_DATAERR rather than EX_USAGE.
bool g_data_error = false;

/// Set when a governed run stopped early and returned a partial result.
bool g_partial = false;

/// Non-null when --timeout-ms / --mem-limit-mb armed a governor in main().
gogreen::RunContext* g_governor = nullptr;

/// Minimal flag parser: --key value / -k value pairs plus bare switches.
/// Negative numbers ("-0.5", "-12") are treated as values, not switches,
/// and multi-dash keys ("--metrics-json") keep their inner dashes.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      const size_t body = key.find_first_not_of('-');
      if (key.empty() || key[0] != '-' || body == std::string::npos ||
          IsNumber(key)) {
        continue;  // Not a switch (bare value already consumed, or noise).
      }
      key = key.substr(body);
      if (i + 1 < argc && IsValue(argv[i + 1])) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Get(const std::string& key, const std::string& dflt = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }

  Result<double> GetDouble(const std::string& key, double dflt) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || end == nullptr || *end != '\0' ||
        errno == ERANGE) {
      return BadNumber(key, it->second);
    }
    return v;
  }

  Result<uint64_t> GetInt(const std::string& key, uint64_t dflt) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    // strtoull silently wraps negatives; reject them explicitly.
    if (it->second.empty() || it->second[0] == '-' || end == nullptr ||
        *end != '\0' || errno == ERANGE) {
      return BadNumber(key, it->second);
    }
    return static_cast<uint64_t>(v);
  }

 private:
  static Status BadNumber(const std::string& key, const std::string& value) {
    return Status::InvalidArgument("flag -" + key + " expects a number, got " +
                                   (value.empty() ? "nothing" : "'" + value +
                                                                    "'"));
  }

  /// A dash followed by a digit or '.' is a negative number, not a switch.
  static bool IsNumber(const std::string& s) {
    return s.size() > 1 && s[0] == '-' &&
           (std::isdigit(static_cast<unsigned char>(s[1])) || s[1] == '.');
  }

  static bool IsValue(const char* s) { return s[0] != '-' || IsNumber(s); }

  std::map<std::string, std::string> values_;
};

int ExitCodeFor(const Status& status) {
  return gogreen::ExitCodeForStatus(status, g_data_error, g_partial);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

int Usage() {
  std::fprintf(stderr,
               "usage: gogreen <mine|recycle|compress|rules|summary|"
               "generate|stats|session|serve|client> [flags]\n"
               "  mine     -i data.dat -s <frac|count> [-a apriori|eclat|"
               "h-mine|fp-growth|tree-projection] [-o patterns.{bin,txt}]\n"
               "  recycle  -i data.dat -p patterns.bin -s <frac|count> "
               "[--strategy MCP|MLP] [-o out.bin]\n"
               "  compress -i data.dat -p patterns.bin -o data.cdb "
               "[--strategy MCP|MLP]\n"
               "  rules    -i data.dat -p patterns.bin [-c 0.6] [-k 20]\n"
               "  summary  -p patterns.bin [--closed] [--maximal]\n"
               "  generate --kind quest|dense -n <tuples> -o data.dat\n"
               "  stats    -i data.dat\n"
               "  session  -i data.dat [--script cmds.txt] [--store-dir d]\n"
               "           [--dataset-id name] [--store-mb n] [-a <algo>]\n"
               "           [--tenant name] [--max-queue n] [--quota-qps f]\n"
               "           (--max-queue/--quota-qps arm admission control:\n"
               "            bounded wait queue, per-tenant token buckets,\n"
               "            degraded serves under overload; see DESIGN.md\n"
               "            §14)\n"
               "  serve    -i data.dat (--socket path | --port n)\n"
               "           [--store-dir d] [--max-connections n]\n"
               "           [--hold-ms n] [+ session's service/admission\n"
               "           flags]; daemon for the wire protocol (DESIGN.md\n"
               "           §16), drains gracefully on SIGINT/SIGTERM\n"
               "  client   (--socket path | --port n) [--tenant name]\n"
               "           [--mine s [--deadline-ms n] [--budget-mb n]\n"
               "           [--request-threads n] | --ping | --stats |\n"
               "           --store | --script cmds.txt]; exit code is the\n"
               "           wire outcome's sysexits projection\n"
               "observability flags (any subcommand):\n"
               "  --metrics-json <path>  write metric/span snapshot JSON\n"
               "  --stats-json <path>    alias of --metrics-json\n"
               "  --stats-prom <path>    write Prometheus text exposition\n"
               "  --trace <path>         write Chrome trace_event JSON\n"
               "  --request-log <path>   append one JSON line per served\n"
               "                         request (session subcommand)\n"
               "execution flags (any subcommand):\n"
               "  --threads <n>          mining/compression thread count\n"
               "                         (default: GOGREEN_THREADS or all "
               "cores;\n"
               "                         output is identical at any count)\n"
               "run-governor flags (mine, recycle):\n"
               "  --timeout-ms <n>       deadline; a breach yields a partial\n"
               "                         result (exit 75) exact at the\n"
               "                         reported frontier support\n"
               "  --mem-limit-mb <n>     budget on mining scratch bytes\n");
  return kExitUsage;
}

/// An InvalidArgument produced while reading a file that *opened* is
/// malformed content, not a bad command line: route it to exit 65.
template <typename T>
Result<T> TagDataError(Result<T> loaded) {
  if (!loaded.ok() && loaded.status().code() == StatusCode::kInvalidArgument) {
    g_data_error = true;
  }
  return loaded;
}

Result<gogreen::fpm::TransactionDb> LoadDb(const Args& args) {
  const std::string path = args.Get("i");
  if (path.empty()) {
    return Status::InvalidArgument("missing -i <data.dat>");
  }
  return TagDataError(gogreen::data::ReadDatFile(path));
}

Result<gogreen::fpm::PatternSet> LoadPatterns(const Args& args) {
  const std::string path = args.Get("p");
  if (path.empty()) {
    return Status::InvalidArgument("missing -p <patterns file>");
  }
  if (path.size() > 4 && path.substr(path.size() - 4) == ".txt") {
    return TagDataError(gogreen::fpm::ReadPatternText(path));
  }
  auto loaded = TagDataError(gogreen::fpm::ReadPatternFile(path));
  if (!loaded.ok()) return loaded.status();
  return std::move(loaded->first);
}

Status SavePatterns(const gogreen::fpm::PatternSet& fp, uint64_t min_support,
                    size_t num_transactions, const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".txt") {
    return gogreen::fpm::WritePatternText(fp, path).status();
  }
  gogreen::fpm::PatternSetHeader header;
  header.min_support = min_support;
  header.num_transactions = num_transactions;
  header.source = "gogreen-cli";
  return gogreen::fpm::WritePatternFile(fp, header, path).status();
}

/// Parses -s as a fraction (< 1.0) or an absolute count.
Result<uint64_t> ParseSupport(const Args& args, size_t num_transactions) {
  GOGREEN_ASSIGN_OR_RETURN(const double raw, args.GetDouble("s", 0.01));
  return gogreen::fpm::ResolveSupport(raw, num_transactions);
}

gogreen::fpm::MinerKind ParseMiner(const std::string& name) {
  using gogreen::fpm::MinerKind;
  if (name == "apriori") return MinerKind::kApriori;
  if (name == "eclat") return MinerKind::kEclat;
  if (name == "fp-growth") return MinerKind::kFpGrowth;
  if (name == "tree-projection") return MinerKind::kTreeProjection;
  return MinerKind::kHMine;
}

gogreen::core::CompressionStrategy ParseStrategy(const std::string& name) {
  return name == "MLP" ? gogreen::core::CompressionStrategy::kMlp
                       : gogreen::core::CompressionStrategy::kMcp;
}

/// Shared partial-result epilogue for the governed subcommands: records the
/// stop for the process exit code and names the frontier on stdout.
void ReportPartial(const gogreen::fpm::MineResult& outcome) {
  if (!outcome.partial) return;
  g_partial = true;
  std::printf("partial result: %s; frontier support %llu\n",
              outcome.stop_status.ToString().c_str(),
              static_cast<unsigned long long>(outcome.frontier_support));
}

Status CmdMine(const Args& args) {
  GOGREEN_ASSIGN_OR_RETURN(const auto db, LoadDb(args));
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t minsup,
                           ParseSupport(args, db.NumTransactions()));

  auto miner = gogreen::fpm::CreateMiner(ParseMiner(args.Get("a", "h-mine")));
  Timer timer;
  gogreen::fpm::MineRequest request = gogreen::fpm::MineRequest::At(minsup);
  request.run_context = g_governor;
  GOGREEN_ASSIGN_OR_RETURN(const auto outcome, miner->Mine(db, request));
  const auto& fp = outcome.patterns;
  std::printf("%s: %zu patterns at support %llu in %.3fs\n",
              miner->name().c_str(), fp.size(),
              static_cast<unsigned long long>(minsup),
              timer.ElapsedSeconds());
  ReportPartial(outcome);
  std::printf("%s\n", gogreen::fpm::Summarize(fp).ToString().c_str());

  const std::string out = args.Get("o");
  if (!out.empty()) {
    GOGREEN_RETURN_NOT_OK(
        SavePatterns(fp, minsup, db.NumTransactions(), out));
    std::printf("wrote %s\n", out.c_str());
  }
  return Status::OK();
}

Status CmdRecycle(const Args& args) {
  GOGREEN_ASSIGN_OR_RETURN(const auto db, LoadDb(args));
  GOGREEN_ASSIGN_OR_RETURN(const auto fp_old, LoadPatterns(args));
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t minsup,
                           ParseSupport(args, db.NumTransactions()));

  Timer timer;
  gogreen::core::CompressionStats cstats;
  gogreen::core::CompressorOptions copts;
  copts.strategy = ParseStrategy(args.Get("strategy", "MCP"));
  copts.matcher = gogreen::core::MatcherKind::kAuto;
  copts.run_context = g_governor;
  GOGREEN_ASSIGN_OR_RETURN(
      const auto cdb,
      gogreen::core::CompressDatabase(db, fp_old, copts, &cstats));
  const double compress_secs = timer.ElapsedSeconds();

  timer.Restart();
  auto miner = gogreen::core::CreateCompressedMiner(
      gogreen::core::RecycleAlgo::kHMine);
  gogreen::fpm::MineRequest request = gogreen::fpm::MineRequest::At(minsup);
  request.run_context = g_governor;
  GOGREEN_ASSIGN_OR_RETURN(const auto outcome, miner->Mine(cdb, request));
  const auto& fp = outcome.patterns;
  std::printf("recycled %zu patterns -> %zu patterns at support %llu "
              "(compress %.3fs ratio %.3f, mine %.3fs)\n",
              fp_old.size(), fp.size(),
              static_cast<unsigned long long>(minsup), compress_secs,
              cstats.Ratio(), timer.ElapsedSeconds());
  ReportPartial(outcome);

  const std::string out = args.Get("o");
  if (!out.empty()) {
    GOGREEN_RETURN_NOT_OK(
        SavePatterns(fp, minsup, db.NumTransactions(), out));
    std::printf("wrote %s\n", out.c_str());
  }
  return Status::OK();
}

Status CmdCompress(const Args& args) {
  GOGREEN_ASSIGN_OR_RETURN(const auto db, LoadDb(args));
  GOGREEN_ASSIGN_OR_RETURN(const auto fp, LoadPatterns(args));
  const std::string out = args.Get("o");
  if (out.empty()) return Status::InvalidArgument("missing -o");

  gogreen::core::CompressionStats stats;
  GOGREEN_ASSIGN_OR_RETURN(
      const auto cdb,
      gogreen::core::CompressDatabase(
          db, fp,
          {ParseStrategy(args.Get("strategy", "MCP")),
           gogreen::core::MatcherKind::kAuto},
          &stats));
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t written, cdb.WriteTo(out));
  std::printf("compressed %zu tuples into %zu groups, ratio %.3f "
              "(%.3fs); wrote %llu bytes to %s\n",
              db.NumTransactions(), cdb.NumGroups(), stats.Ratio(),
              stats.elapsed_seconds,
              static_cast<unsigned long long>(written), out.c_str());
  return Status::OK();
}

Status CmdRules(const Args& args) {
  GOGREEN_ASSIGN_OR_RETURN(const auto db, LoadDb(args));
  GOGREEN_ASSIGN_OR_RETURN(const auto fp, LoadPatterns(args));

  gogreen::fpm::RuleOptions options;
  GOGREEN_ASSIGN_OR_RETURN(options.min_confidence,
                           args.GetDouble("c", 0.6));
  GOGREEN_ASSIGN_OR_RETURN(options.max_consequent,
                           args.GetInt("max-consequent", 1));
  GOGREEN_ASSIGN_OR_RETURN(
      const auto rules,
      gogreen::fpm::GenerateRules(fp, db.NumTransactions(), options));
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t k, args.GetInt("k", 20));
  std::printf("%zu rules (showing top %zu by confidence):\n", rules.size(),
              std::min<size_t>(k, rules.size()));
  for (size_t i = 0; i < rules.size() && i < k; ++i) {
    std::printf("  %s\n", rules[i].ToString().c_str());
  }
  return Status::OK();
}

Status CmdSummary(const Args& args) {
  GOGREEN_ASSIGN_OR_RETURN(const auto fp, LoadPatterns(args));
  std::printf("all:     %s\n", gogreen::fpm::Summarize(fp).ToString().c_str());
  if (args.Has("closed")) {
    const auto closed = gogreen::fpm::ClosedPatterns(fp);
    std::printf("closed:  %s\n",
                gogreen::fpm::Summarize(closed).ToString().c_str());
  }
  if (args.Has("maximal")) {
    const auto maximal = gogreen::fpm::MaximalPatterns(fp);
    std::printf("maximal: %s\n",
                gogreen::fpm::Summarize(maximal).ToString().c_str());
  }
  return Status::OK();
}

Status CmdGenerate(const Args& args) {
  const std::string out = args.Get("o");
  if (out.empty()) return Status::InvalidArgument("missing -o");
  const std::string kind = args.Get("kind", "quest");
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t n, args.GetInt("n", 100000));

  Result<gogreen::fpm::TransactionDb> db =
      Status::InvalidArgument("unknown --kind: " + kind);
  if (kind == "quest") {
    gogreen::data::QuestConfig cfg;
    cfg.num_transactions = n;
    GOGREEN_ASSIGN_OR_RETURN(cfg.avg_transaction_len,
                             args.GetDouble("avg-len", 10.0));
    GOGREEN_ASSIGN_OR_RETURN(cfg.num_items, args.GetInt("items", 1000));
    GOGREEN_ASSIGN_OR_RETURN(cfg.num_patterns,
                             args.GetInt("patterns", 500));
    GOGREEN_ASSIGN_OR_RETURN(cfg.avg_pattern_len,
                             args.GetDouble("pattern-len", 4.0));
    GOGREEN_ASSIGN_OR_RETURN(cfg.seed, args.GetInt("seed", 1));
    db = gogreen::data::GenerateQuest(cfg);
  } else if (kind == "dense") {
    GOGREEN_ASSIGN_OR_RETURN(const uint64_t attrs,
                             args.GetInt("attrs", 20));
    GOGREEN_ASSIGN_OR_RETURN(const uint64_t values,
                             args.GetInt("values", 5));
    GOGREEN_ASSIGN_OR_RETURN(const uint64_t seed, args.GetInt("seed", 1));
    db = gogreen::data::GenerateDense(
        gogreen::data::DenseConfig::Uniform(n, attrs, values, seed));
  }
  GOGREEN_RETURN_NOT_OK(db.status());
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t written,
                           gogreen::data::WriteDatFile(*db, out));
  std::printf("generated %zu transactions (avg len %.1f) -> %s (%llu "
              "bytes)\n",
              db->NumTransactions(), db->AvgLength(), out.c_str(),
              static_cast<unsigned long long>(written));
  return Status::OK();
}

Status CmdStats(const Args& args) {
  GOGREEN_ASSIGN_OR_RETURN(const auto db, LoadDb(args));
  std::printf("transactions: %zu\n", db.NumTransactions());
  std::printf("avg length:   %.2f\n", db.AvgLength());
  std::printf("total items:  %zu\n", db.TotalItems());
  std::printf("distinct:     %zu (universe %zu)\n", db.NumDistinctItems(),
              db.ItemUniverseSize());
  return Status::OK();
}

/// The serving stack `session` and `serve` share: the MiningService, its
/// optional AdmissionController front door, and the store directory it
/// loads on start / persists on exit.
struct ServiceSetup {
  std::unique_ptr<gogreen::serve::MiningService> service;
  std::unique_ptr<gogreen::serve::AdmissionController> admission;
  std::string store_dir;
};

Result<ServiceSetup> BuildService(const Args& args) {
  GOGREEN_ASSIGN_OR_RETURN(auto db, LoadDb(args));

  gogreen::serve::ServiceOptions options;
  options.base_miner = ParseMiner(args.Get("a", "h-mine"));
  options.strategy = ParseStrategy(args.Get("strategy", "MCP"));
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t store_mb,
                           args.GetInt("store-mb", 64));
  if (store_mb < 1) {
    return Status::InvalidArgument("--store-mb must be >= 1");
  }
  options.store.byte_budget = static_cast<size_t>(store_mb) << 20;
  // The dataset id keys the pattern store (and its persisted files); it
  // defaults to the input path, so the same file round-trips naturally.
  std::string dataset_id = args.Get("dataset-id");
  if (dataset_id.empty()) dataset_id = args.Get("i");

  ServiceSetup setup;
  setup.service = std::make_unique<gogreen::serve::MiningService>(
      std::move(db), dataset_id, options);

  setup.store_dir = args.Get("store-dir");
  if (!setup.store_dir.empty()) {
    // A missing or empty directory just means a cold store.
    size_t skipped = 0;
    const Status loaded =
        setup.service->store().LoadFrom(setup.store_dir, &skipped);
    if (loaded.ok()) {
      std::printf("store: loaded %zu entries from %s (%zu skipped)\n",
                  setup.service->store().stats().entries,
                  setup.store_dir.c_str(), skipped);
    }
  }

  // Admission control is opt-in: arming either flag puts the bounded
  // queue, tenant quotas, breaker, and degraded serves in front of every
  // mine served.
  if (args.Has("max-queue") || args.Has("quota-qps")) {
    gogreen::serve::AdmissionOptions admission_options;
    GOGREEN_ASSIGN_OR_RETURN(const uint64_t max_queue,
                             args.GetInt("max-queue", 16));
    admission_options.max_queue = static_cast<size_t>(max_queue);
    GOGREEN_ASSIGN_OR_RETURN(const double quota_qps,
                             args.GetDouble("quota-qps", 0.0));
    if (quota_qps < 0.0) {
      return Status::InvalidArgument("--quota-qps must be >= 0");
    }
    admission_options.default_quota.qps = quota_qps;
    setup.admission = std::make_unique<gogreen::serve::AdmissionController>(
        *setup.service, admission_options);
  }
  return setup;
}

/// Persists the store on the way out (session end / daemon shutdown).
Status SaveStore(gogreen::serve::MiningService& service,
                 const std::string& store_dir) {
  if (store_dir.empty()) return Status::OK();
  GOGREEN_RETURN_NOT_OK(service.store().SaveTo(store_dir));
  std::printf("store: saved %zu entries to %s\n",
              service.store().stats().entries, store_dir.c_str());
  return Status::OK();
}

Status CmdSession(const Args& args) {
  GOGREEN_ASSIGN_OR_RETURN(ServiceSetup setup, BuildService(args));
  gogreen::serve::MiningService& service = *setup.service;

  gogreen::serve::SessionConfig config;
  config.tenant = args.Get("tenant");
  config.admission = setup.admission.get();
  Result<gogreen::serve::SessionSummary> summary =
      Status::Internal("session did not run");
  const std::string script = args.Get("script");
  if (!script.empty()) {
    std::ifstream in(script);
    if (!in.is_open()) {
      return Status::IOError("cannot open script: " + script);
    }
    summary = gogreen::serve::RunSession(service, in, std::cout, config);
  } else {
    config.interactive = ::isatty(STDIN_FILENO) != 0;
    summary = gogreen::serve::RunSession(service, std::cin, std::cout,
                                         config);
  }
  GOGREEN_RETURN_NOT_OK(summary.status());

  GOGREEN_RETURN_NOT_OK(SaveStore(service, setup.store_dir));
  std::printf("session: %llu commands, %llu mines (%llu partial, %llu "
              "errors)\n",
              static_cast<unsigned long long>(summary->commands),
              static_cast<unsigned long long>(summary->mines),
              static_cast<unsigned long long>(summary->partials),
              static_cast<unsigned long long>(summary->errors));
  if (summary->partials > 0) g_partial = true;
  return Status::OK();
}

/// SIGINT/SIGTERM flag for `serve`: the handler only sets a flag; the
/// serving loop polls it and runs the graceful drain outside signal
/// context.
volatile std::sig_atomic_t g_shutdown_requested = 0;

void RequestShutdown(int /*signo*/) { g_shutdown_requested = 1; }

Status CmdServe(const Args& args) {
  GOGREEN_ASSIGN_OR_RETURN(ServiceSetup setup, BuildService(args));
  gogreen::serve::MiningService& service = *setup.service;

  gogreen::net::ServerOptions options;
  options.unix_path = args.Get("socket");
  if (args.Has("port")) {
    GOGREEN_ASSIGN_OR_RETURN(const uint64_t port, args.GetInt("port", 0));
    if (port > 65535) {
      return Status::InvalidArgument("--port must be <= 65535");
    }
    options.tcp_port = static_cast<int>(port);
  }
  GOGREEN_ASSIGN_OR_RETURN(const uint64_t max_connections,
                           args.GetInt("max-connections", 8));
  if (max_connections < 1 || max_connections > 64) {
    return Status::InvalidArgument(
        "--max-connections must be between 1 and 64");
  }
  options.max_connections = static_cast<size_t>(max_connections);
  GOGREEN_ASSIGN_OR_RETURN(options.mine_hold_ms, args.GetInt("hold-ms", 0));

  // Install the handlers before the socket accepts anything: a client that
  // sees the first ping may send SIGTERM at once and expects a clean drain.
  g_shutdown_requested = 0;
  std::signal(SIGINT, RequestShutdown);
  std::signal(SIGTERM, RequestShutdown);
  gogreen::net::Server server(service, setup.admission.get(), options);
  if (const Status started = server.Start(); !started.ok()) {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    return started;
  }
  if (!options.unix_path.empty()) {
    std::printf("serving %s on %s\n", service.dataset_id().c_str(),
                options.unix_path.c_str());
  } else {
    std::printf("serving %s on port %d\n", service.dataset_id().c_str(),
                server.port());
  }
  std::fflush(stdout);

  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  server.Stop();  // Drains in-flight requests before returning.
  GOGREEN_RETURN_NOT_OK(SaveStore(service, setup.store_dir));
  std::printf("serve: drained and stopped\n");
  return Status::OK();
}

/// Exit code chosen by `client` from the wire outcome (see
/// ExitCodeForOutcome); -1 while no one-shot response has decided one.
int g_exit_override = -1;

Status CmdClient(const Args& args) {
  Result<gogreen::net::Client> connected =
      Status::InvalidArgument("client needs one of --socket and --port");
  const std::string socket_path = args.Get("socket");
  if (!socket_path.empty()) {
    connected = gogreen::net::Client::ConnectUnix(socket_path);
  } else if (args.Has("port")) {
    GOGREEN_ASSIGN_OR_RETURN(const uint64_t port, args.GetInt("port", 0));
    connected = gogreen::net::Client::ConnectTcp(static_cast<int>(port));
  }
  GOGREEN_RETURN_NOT_OK(connected.status());
  gogreen::net::Client& client = connected.value();

  // Bind the connection's tenant before anything else runs under it.
  if (args.Has("tenant")) {
    gogreen::net::WireRequest bind;
    bind.verb = gogreen::net::Verb::kTenant;
    bind.tenant = args.Get("tenant");
    GOGREEN_ASSIGN_OR_RETURN(const auto bound, client.Call(bind));
    GOGREEN_RETURN_NOT_OK(bound.ToStatus());
  }

  // One-shot verbs: exactly one request, exit code from the outcome.
  const bool one_shot = args.Has("mine") || args.Has("ping") ||
                        args.Has("stats") || args.Has("store");
  if (one_shot) {
    gogreen::net::WireRequest request;
    if (args.Has("mine")) {
      request.verb = gogreen::net::Verb::kMine;
      GOGREEN_ASSIGN_OR_RETURN(request.support,
                               args.GetDouble("mine", 0.0));
      GOGREEN_ASSIGN_OR_RETURN(request.deadline_ms,
                               args.GetInt("deadline-ms", 0));
      GOGREEN_ASSIGN_OR_RETURN(request.budget_mb,
                               args.GetInt("budget-mb", 0));
      GOGREEN_ASSIGN_OR_RETURN(request.threads,
                               args.GetInt("request-threads", 0));
    } else if (args.Has("ping")) {
      request.verb = gogreen::net::Verb::kPing;
    } else if (args.Has("stats")) {
      // The daemon-wide metrics snapshot (the REPL's `\stats` view).
      request.verb = gogreen::net::Verb::kMetrics;
    } else {
      request.verb = gogreen::net::Verb::kStore;
    }
    GOGREEN_ASSIGN_OR_RETURN(const auto resp, client.Call(request));
    const Status outcome_status = resp.ToStatus();
    if (!outcome_status.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   outcome_status.ToString().c_str());
      if (resp.retry_after_ms > 0) {
        std::fprintf(stderr, "retry-after-ms: %llu\n",
                     static_cast<unsigned long long>(resp.retry_after_ms));
      }
    } else if (request.verb == gogreen::net::Verb::kMine) {
      std::fputs(gogreen::serve::FormatMineLine(resp).c_str(), stdout);
    } else if (request.verb == gogreen::net::Verb::kPing) {
      std::printf("pong\n");
    } else {
      std::fputs(resp.body.c_str(), stdout);
    }
    g_exit_override =
        gogreen::ExitCodeForOutcome(resp.outcome, resp.error_code);
    return Status::OK();
  }

  // Script / interactive mode: the session command language, executed
  // remotely. save/load stay local-only and fail with a typed error.
  gogreen::serve::SessionConfig config;
  const gogreen::serve::WireExecutor executor =
      [&client](const gogreen::net::WireRequest& request) {
        return client.Call(request);
      };
  Result<gogreen::serve::SessionSummary> summary =
      Status::Internal("client session did not run");
  const std::string script = args.Get("script");
  if (!script.empty()) {
    std::ifstream in(script);
    if (!in.is_open()) {
      return Status::IOError("cannot open script: " + script);
    }
    summary = gogreen::serve::RunWireSession(executor, nullptr, in,
                                             std::cout, config);
  } else {
    config.interactive = ::isatty(STDIN_FILENO) != 0;
    summary = gogreen::serve::RunWireSession(executor, nullptr, std::cin,
                                             std::cout, config);
  }
  GOGREEN_RETURN_NOT_OK(summary.status());
  std::printf("client: %llu commands, %llu mines (%llu partial, %llu "
              "errors)\n",
              static_cast<unsigned long long>(summary->commands),
              static_cast<unsigned long long>(summary->mines),
              static_cast<unsigned long long>(summary->partials),
              static_cast<unsigned long long>(summary->errors));
  if (summary->partials > 0) g_partial = true;
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Args args(argc, argv);
  const std::string cmd = argv[1];

  // Observability sinks: when any sink flag is present, turn the span
  // tracer on before the command runs (full event recording only when a
  // trace file was requested; other sinks just keep aggregates — the
  // request log needs them for its per-request phase timings).
  std::string metrics_path = args.Get("metrics-json");
  if (metrics_path.empty()) metrics_path = args.Get("stats-json");
  const std::string prom_path = args.Get("stats-prom");
  const std::string trace_path = args.Get("trace");
  const std::string request_log_path = args.Get("request-log");
  if (!metrics_path.empty() || !prom_path.empty() || !trace_path.empty() ||
      !request_log_path.empty()) {
    gogreen::obs::Tracer::Global().Enable(!trace_path.empty());
  }
  if (!request_log_path.empty()) {
    const Status attached =
        gogreen::obs::RequestLog::Global().AttachSink(request_log_path);
    if (!attached.ok()) return Fail(attached);
  }

  // Parallelism: --threads beats GOGREEN_THREADS beats hardware default.
  if (args.Has("threads")) {
    const auto threads = args.GetInt("threads", 0);
    if (!threads.ok()) return Fail(threads.status());
    if (*threads < 1 || *threads > 1024) {
      return Fail(Status::InvalidArgument(
          "--threads must be between 1 and 1024"));
    }
    gogreen::ThreadPool::SetGlobalThreads(static_cast<size_t>(*threads));
  }

  // Run governor: either flag arms a context that mine/recycle observe.
  // --timeout-ms 0 is a deadline that is already due — useful for testing
  // the partial-result path deterministically.
  gogreen::RunContext run_ctx;
  if (args.Has("timeout-ms") || args.Has("mem-limit-mb")) {
    const auto timeout_ms = args.GetInt("timeout-ms", 0);
    if (!timeout_ms.ok()) return Fail(timeout_ms.status());
    const auto mem_mb = args.GetInt("mem-limit-mb", 0);
    if (!mem_mb.ok()) return Fail(mem_mb.status());
    if (args.Has("timeout-ms")) {
      run_ctx.SetDeadlineAfterMillis(static_cast<int64_t>(*timeout_ms));
    }
    if (*mem_mb > 0) {
      run_ctx.SetMemoryBudget(static_cast<size_t>(*mem_mb) << 20);
    }
    g_governor = &run_ctx;
  }

  Status status;
  if (cmd == "mine") {
    status = CmdMine(args);
  } else if (cmd == "recycle") {
    status = CmdRecycle(args);
  } else if (cmd == "compress") {
    status = CmdCompress(args);
  } else if (cmd == "rules") {
    status = CmdRules(args);
  } else if (cmd == "summary") {
    status = CmdSummary(args);
  } else if (cmd == "generate") {
    status = CmdGenerate(args);
  } else if (cmd == "stats") {
    status = CmdStats(args);
  } else if (cmd == "session") {
    status = CmdSession(args);
  } else if (cmd == "serve") {
    status = CmdServe(args);
  } else if (cmd == "client") {
    status = CmdClient(args);
  } else {
    return Usage();
  }

  int rc = status.ok() ? ExitCodeFor(status) : Fail(status);
  // A one-shot `client` call answers with a wire outcome; its sysexits
  // projection wins over the (OK) command status.
  if (status.ok() && g_exit_override >= 0) rc = g_exit_override;
  if (!metrics_path.empty()) {
    const Status w = gogreen::obs::WriteMetricsJson(metrics_path);
    if (!w.ok()) {
      rc = Fail(w);
    } else {
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
    }
  }
  if (!prom_path.empty()) {
    const Status w = gogreen::obs::WriteMetricsProm(prom_path);
    if (!w.ok()) {
      rc = Fail(w);
    } else {
      std::fprintf(stderr, "wrote metrics to %s\n", prom_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    const Status w =
        gogreen::obs::Tracer::Global().WriteChromeTrace(trace_path);
    if (!w.ok()) {
      rc = Fail(w);
    } else {
      std::fprintf(stderr, "wrote trace to %s\n", trace_path.c_str());
    }
  }
  if (!request_log_path.empty()) {
    gogreen::obs::RequestLog::Global().DetachSink();
  }
  return rc;
}
