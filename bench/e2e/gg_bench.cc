// gg_bench — end-to-end benchmark of the gogreen daemon (README.md).
//
//   gg_bench --workload <name> --seed <n> [--seconds <s>] [--traced]
//            [--quick] [--workdir <dir>] [--out <json>]
//
// Writes the workload's dataset for the seed, counts the patterns at every
// support the workload asks for with FP-growth (the oracle), then starts
// `gogreen serve --threads 2` and drives it over a unix socket from one
// event-loop thread (loadgen.h). Untraced, it reports the end-to-end
// metrics. --traced spends half the time on untraced daemons and half on
// daemons started with --trace/--request-log, and reports the per-layer
// metrics, partly from the responses and partly from the in-process replay
// of replay.h. It prints one `name value unit` line per metric, writes the
// metrics and the answer check to --out as JSON, and exits 1 when any
// answer was wrong.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/e2e/daemon.h"
#include "bench/e2e/loadgen.h"
#include "bench/e2e/metrics.h"
#include "bench/e2e/replay.h"
#include "bench/e2e/workloads.h"
#include "data/dat_io.h"
#include "fpm/miner.h"
#include "net/client.h"
#include "serve/pattern_store.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gg_bench {
namespace {

namespace fpm = gogreen::fpm;
namespace net = gogreen::net;
using gogreen::Result;
using gogreen::Status;
using gogreen::Timer;

/// The daemon's mining parallelism, and the replay's.
constexpr size_t kThreads = 2;
/// Workloads that keep one daemon start this many more, untimed, so that
/// setup_s is the fastest of several.
constexpr int kExtraStarts = 9;
/// mixed-open: traffic due before this fills the store and is not timed.
constexpr double kWarmupS = 2.0;
/// mixed-open, traced: how long the closed-loop capacity stretch runs.
constexpr double kCapacityS = 3.0;
/// Popularity skew of the supports hot-read and mixed-open draw.
constexpr double kZipfExponent = 1.0;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 20.0;
  bool traced = false;
  bool quick = false;
  std::string workdir = "build-e2e/gg_bench";
  std::string out;
};

Result<Options> ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      return std::string(argv[++i]);
    };
    if (flag == "--traced") {
      o.traced = true;
    } else if (flag == "--quick") {
      o.quick = true;
    } else if (flag == "--workload") {
      GOGREEN_ASSIGN_OR_RETURN(o.workload, value());
    } else if (flag == "--workdir") {
      GOGREEN_ASSIGN_OR_RETURN(o.workdir, value());
    } else if (flag == "--out") {
      GOGREEN_ASSIGN_OR_RETURN(o.out, value());
    } else if (flag == "--seed" || flag == "--seconds") {
      GOGREEN_ASSIGN_OR_RETURN(const std::string text, value());
      char* end = nullptr;
      const double number = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !(number >= 0.0)) {
        return Status::InvalidArgument(flag + " needs a number >= 0");
      }
      if (flag == "--seed") {
        o.seed = static_cast<uint64_t>(number);
      } else {
        o.seconds = number;
      }
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) {
    return Status::InvalidArgument("--workload is required");
  }
  if (o.quick) o.seconds = 2.0;
  if (o.seconds <= 0.0) return Status::InvalidArgument("--seconds must be > 0");
  return o;
}

/// Draws indices 0..n-1 with probability proportional to 1/(rank+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cumulative_.push_back(acc);
    }
  }
  size_t Draw(gogreen::Random* rng) const {
    const double u = rng->NextDouble() * cumulative_.back();
    return static_cast<size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

/// Closed-loop traffic that sends `supports` in order, then stops.
Traffic InOrder(std::vector<double> supports) {
  Traffic traffic;
  traffic.next = [supports = std::move(supports), i = size_t{0}](
                     size_t, double) mutable -> std::optional<double> {
    if (i == supports.size()) return std::nullopt;
    return supports[i++];
  };
  return traffic;
}

/// Everything one stretch of traffic produced.
struct Phase {
  std::vector<Sample> timed;     // latency and throughput come from these
  std::vector<Sample> all;       // every answered mine, priming included
  double traffic_s = 0.0;        // wall time of the timed traffic
  double closed_loop_rps = 0.0;  // open loop, traced: its capacity
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  std::vector<double> store_mb;
};

class Bench {
 public:
  Bench(const Options& options, const Workload& workload)
      : o_(options), w_(workload) {}

  /// Writes the dataset and computes the oracle.
  Status Prepare();
  /// Runs the workload and returns its metrics.
  Result<std::vector<Metric>> Run();

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  Result<Phase> RunPhase(bool traced, double seconds);
  Status RunRelax(bool traced, double seconds, Phase* phase);
  Status RunOneDaemon(bool traced, double seconds, Phase* phase);
  Status StartDaemon(Daemon* daemon, bool traced, bool persist,
                     std::string* request_log);
  /// Reads the daemon's store size, stops it, and keeps its peak RSS.
  Status Finish(Daemon* daemon, Phase* phase);
  /// Counts each wrong answer in failed_.
  void Check(const std::vector<Sample>& samples);
  /// A traced daemon logs one wide event per mine request.
  void CheckRequestLog(const std::string& path, size_t mines);
  /// The store the daemon persisted must equal FP-growth, set for set.
  Status CheckPersistedStore();
  void Fail(const std::string& what);

  std::vector<Metric> EndToEnd(const Phase& p) const;
  Result<std::vector<Metric>> PerLayer(const Phase& untraced,
                                       const Phase& traced) const;

  const Options& o_;
  const Workload& w_;
  std::string dat_path_;
  fpm::TransactionDb db_;
  std::map<uint64_t, uint64_t> oracle_;  // absolute support -> patterns
  int daemons_started_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

Status Bench::Prepare() {
  std::filesystem::create_directories(o_.workdir);
  GOGREEN_ASSIGN_OR_RETURN(db_,
                           MakeSeededDataset(w_.dataset, w_.scale, o_.seed));
  dat_path_ = o_.workdir + "/" + w_.name + "-" + std::to_string(o_.seed) +
              ".dat";
  GOGREEN_RETURN_NOT_OK(gogreen::data::WriteDatFile(db_, dat_path_).status());
  for (double support : w_.supports) {
    const uint64_t abs = fpm::AbsoluteSupport(support, db_.NumTransactions());
    if (oracle_.count(abs) != 0) continue;
    GOGREEN_ASSIGN_OR_RETURN(
        const fpm::MineResult mined,
        fpm::CreateMiner(fpm::MinerKind::kFpGrowth)
            ->Mine(db_, fpm::MineRequest::At(abs)));
    oracle_[abs] = mined.patterns.size();
  }
  return Status::OK();
}

Status Bench::StartDaemon(Daemon* daemon, bool traced, bool persist,
                          std::string* request_log) {
  const std::string tag =
      o_.workdir + "/d" + std::to_string(daemons_started_++);
  std::vector<std::string> args = {"-i", dat_path_, "--threads",
                                   std::to_string(kThreads)};
  args.insert(args.end(), w_.daemon_flags.begin(), w_.daemon_flags.end());
  request_log->clear();
  if (traced) {
    // A relax run's later sessions overwrite the trace of earlier ones.
    *request_log = tag + ".requests.jsonl";
    args.insert(args.end(), {"--trace", o_.workdir + "/daemon.trace.json",
                             "--request-log", *request_log});
  }
  if (persist) args.insert(args.end(), {"--store-dir", o_.workdir + "/store"});
  return daemon->Start(GG_DAEMON_PATH, tag + ".sock", args, tag + ".log");
}

Status Bench::Finish(Daemon* daemon, Phase* phase) {
  GOGREEN_ASSIGN_OR_RETURN(net::Client client,
                           net::Client::ConnectUnix(daemon->socket_path()));
  net::WireRequest request;
  request.verb = net::Verb::kStore;
  GOGREEN_ASSIGN_OR_RETURN(const net::WireResponse store,
                           client.Call(request));
  const size_t at = store.body.find("bytes=");
  if (at == std::string::npos) {
    return Status::IOError("unexpected store line: " + store.body);
  }
  phase->store_mb.push_back(std::stod(store.body.substr(at + 6)) /
                            (1024.0 * 1024.0));
  GOGREEN_RETURN_NOT_OK(daemon->Stop());
  phase->rss_mb.push_back(daemon->peak_rss_mb());
  return Status::OK();
}

void Bench::Fail(const std::string& what) {
  if (failed_++ < 5) {
    std::fprintf(stderr, "gg_bench: wrong answer: %s\n", what.c_str());
  }
}

void Bench::Check(const std::vector<Sample>& samples) {
  for (const Sample& s : samples) {
    ++attempted_;
    const net::WireResponse& r = s.response;
    const uint64_t abs =
        fpm::AbsoluteSupport(s.request.support, db_.NumTransactions());
    const auto expected = oracle_.find(abs);
    if (r.outcome != gogreen::Outcome::kOk || r.partial || r.degraded ||
        r.shed || r.min_support != abs || expected == oracle_.end() ||
        r.patterns != expected->second) {
      Fail("support " + std::to_string(abs) + ": outcome " +
           gogreen::OutcomeLabel(r.outcome, r.error_code) + " " + r.error +
           ", route " + r.route + ", " + std::to_string(r.patterns) +
           " patterns, oracle " +
           (expected == oracle_.end() ? std::string("none")
                                      : std::to_string(expected->second)));
    }
  }
}

void Bench::CheckRequestLog(const std::string& path, size_t mines) {
  std::ifstream in(path);
  size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  if (lines != mines) {
    Fail(path + " holds " + std::to_string(lines) + " events for " +
         std::to_string(mines) + " mine requests");
  }
}

Status Bench::CheckPersistedStore() {
  gogreen::serve::PatternStore store(
      gogreen::serve::PatternStore::Options{size_t{1} << 40});
  size_t skipped = 0;
  GOGREEN_RETURN_NOT_OK(store.LoadFrom(o_.workdir + "/store", &skipped));
  const auto entries = store.Candidates(dat_path_, "");
  if (skipped != 0 || entries.empty()) {
    Fail("persisted store: " + std::to_string(entries.size()) +
         " entries, " + std::to_string(skipped) + " unreadable");
  }
  for (const auto& entry : entries) {
    fpm::PatternSet persisted = *store.Get({dat_path_, "", entry.min_support});
    GOGREEN_ASSIGN_OR_RETURN(
        fpm::MineResult mined,
        fpm::CreateMiner(fpm::MinerKind::kFpGrowth)
            ->Mine(db_, fpm::MineRequest::At(entry.min_support)));
    if (!fpm::PatternSet::Equal(&persisted, &mined.patterns)) {
      Fail("persisted set at support " + std::to_string(entry.min_support) +
           " differs from FP-growth");
    }
  }
  return Status::OK();
}

Status Bench::RunRelax(bool traced, double seconds, Phase* phase) {
  // A fresh daemon per session: each session starts from an empty store.
  const Timer clock;
  bool persist = traced;
  do {
    Daemon daemon;
    std::string request_log;
    GOGREEN_RETURN_NOT_OK(StartDaemon(&daemon, traced, persist, &request_log));
    phase->setup_s.push_back(daemon.setup_seconds());
    GOGREEN_ASSIGN_OR_RETURN(
        std::vector<Sample> samples,
        Drive(daemon.socket_path(), w_.connections, InOrder(w_.supports)));
    GOGREEN_RETURN_NOT_OK(Finish(&daemon, phase));
    if (traced) CheckRequestLog(request_log, samples.size());
    if (persist) GOGREEN_RETURN_NOT_OK(CheckPersistedStore());
    persist = false;
    phase->traffic_s += samples.back().done_s;
    phase->timed.insert(phase->timed.end(), samples.begin(), samples.end());
    phase->all.insert(phase->all.end(), samples.begin(), samples.end());
  } while (clock.ElapsedSeconds() < seconds);
  return Status::OK();
}

Status Bench::RunOneDaemon(bool traced, double seconds, Phase* phase) {
  std::string request_log;
  for (int i = 0; i < (o_.quick ? 1 : kExtraStarts); ++i) {
    // Set-up only, so ~Daemon's SIGKILL stops it: `serve` answers pings
    // before it installs its SIGTERM handler, and a SIGTERM this early
    // would kill it by the default action.
    Daemon daemon;
    GOGREEN_RETURN_NOT_OK(StartDaemon(&daemon, false, false, &request_log));
    phase->setup_s.push_back(daemon.setup_seconds());
  }
  Daemon daemon;
  GOGREEN_RETURN_NOT_OK(StartDaemon(&daemon, traced, traced, &request_log));
  phase->setup_s.push_back(daemon.setup_seconds());
  gogreen::Random rng(o_.seed * 2 + (traced ? 1 : 0));
  // Supports are drawn by Zipf popularity, the highest support (the
  // smallest set) the most popular.
  std::vector<double> popular = w_.supports;
  std::sort(popular.rbegin(), popular.rend());
  const Zipf zipf(popular.size(), kZipfExponent);

  // Untimed priming. hot-read fills the store with its supports in order;
  // mixed-open mines the top of its grid once, after which every support
  // has a seed to filter down from or recycle, as on a daemon that has
  // been up for a while.
  const bool hot = w_.kind == WorkloadKind::kHotRead;
  GOGREEN_ASSIGN_OR_RETURN(
      phase->all,
      Drive(daemon.socket_path(), 1,
            InOrder(hot ? w_.supports : std::vector<double>{popular.front()})));

  // Closed-loop Zipf draws on every connection for `until_s` seconds.
  auto closed_loop = [&](double until_s) {
    Traffic traffic;
    traffic.next = [&, until_s](size_t, double now) -> std::optional<double> {
      if (now >= until_s) return std::nullopt;
      return popular[zipf.Draw(&rng)];
    };
    return traffic;
  };
  auto last_done = [](const std::vector<Sample>& samples) {
    double last = 0.0;
    for (const Sample& s : samples) last = std::max(last, s.done_s);
    return last;
  };

  if (hot) {
    // Every timed request is an exact hit.
    GOGREEN_ASSIGN_OR_RETURN(
        phase->timed,
        Drive(daemon.socket_path(), w_.connections, closed_loop(seconds)));
    phase->traffic_s = last_done(phase->timed);
  } else {
    // Open-loop arrivals over the grid; the first kWarmupS seconds of
    // traffic fill the store and are not timed.
    const double warmup = o_.quick ? kWarmupS / 4 : kWarmupS;
    // A Poisson process given its count: the expected number of arrivals,
    // at uniform times. Fixing the count keeps its run-to-run variance out
    // of throughput_rps.
    const double window = warmup + seconds;
    Traffic traffic;
    for (long i = std::lround(w_.rate_rps * window); i > 0; --i) {
      traffic.schedule.emplace_back(rng.NextDouble() * window,
                                    popular[zipf.Draw(&rng)]);
    }
    std::sort(traffic.schedule.begin(), traffic.schedule.end());
    GOGREEN_ASSIGN_OR_RETURN(
        std::vector<Sample> samples,
        Drive(daemon.socket_path(), w_.connections, traffic));
    for (Sample& s : samples) {
      (s.due_s < warmup ? phase->all : phase->timed).push_back(std::move(s));
    }
    phase->traffic_s = std::max(last_done(phase->timed), warmup) - warmup;
    if (traced) {
      // The ceiling the open-loop rate is set against: the same draws
      // closed-loop on every connection, on the store the traffic left.
      const double capacity_s = o_.quick ? kCapacityS / 4 : kCapacityS;
      GOGREEN_ASSIGN_OR_RETURN(
          std::vector<Sample> capacity,
          Drive(daemon.socket_path(), w_.connections, closed_loop(capacity_s)));
      phase->closed_loop_rps =
          static_cast<double>(capacity.size()) / last_done(capacity);
      phase->all.insert(phase->all.end(), capacity.begin(), capacity.end());
    }
  }
  GOGREEN_RETURN_NOT_OK(Finish(&daemon, phase));
  phase->all.insert(phase->all.end(), phase->timed.begin(), phase->timed.end());
  if (traced) {
    CheckRequestLog(request_log, phase->all.size());
    GOGREEN_RETURN_NOT_OK(CheckPersistedStore());
  }
  return Status::OK();
}

Result<Phase> Bench::RunPhase(bool traced, double seconds) {
  Phase phase;
  if (w_.kind == WorkloadKind::kRelaxSparse ||
      w_.kind == WorkloadKind::kRelaxDense) {
    GOGREEN_RETURN_NOT_OK(RunRelax(traced, seconds, &phase));
  } else {
    GOGREEN_RETURN_NOT_OK(RunOneDaemon(traced, seconds, &phase));
  }
  if (phase.timed.empty() || phase.traffic_s <= 0.0) {
    return Status::Internal("no request completed");
  }
  Check(phase.all);
  return phase;
}

/// Each sample's latency in ms, replaced by the fastest latency of its
/// class: the samples with the same support, route and seed support,
/// which is the same work on the same store contents.
std::vector<double> FastestOfClassMs(const std::vector<Sample>& samples) {
  using Class = std::tuple<uint64_t, std::string, uint64_t>;
  auto class_of = [](const Sample& s) {
    return Class{s.response.min_support, s.Route(), s.response.seed_support};
  };
  std::map<Class, double> fastest;
  for (const Sample& s : samples) {
    const auto [it, fresh] = fastest.emplace(class_of(s), s.LatencyS());
    if (!fresh) it->second = std::min(it->second, s.LatencyS());
  }
  std::vector<double> latency_ms;
  for (const Sample& s : samples) {
    latency_ms.push_back(fastest[class_of(s)] * 1e3);
  }
  return latency_ms;
}

std::vector<Metric> Bench::EndToEnd(const Phase& p) const {
  // The host runs the same code up to 2x slower from one moment to the
  // next, never faster than when quiet (README.md "Run-to-run spread"), so:
  //  - set-up time is the fastest of the run's daemon starts;
  //  - a closed loop repeats each class of work many times, and each
  //    request counts at its class's fastest latency; throughput is the
  //    loop's connections over the mean of those (Little's law);
  //  - an open loop's latency includes queueing behind other requests,
  //    which is what it measures, so it is reported as observed.
  const bool open = w_.rate_rps > 0.0;
  std::vector<double> latency_ms;
  double throughput = 0.0;
  if (open) {
    for (const Sample& s : p.timed) latency_ms.push_back(s.LatencyS() * 1e3);
    throughput = static_cast<double>(p.timed.size()) / p.traffic_s;
  } else {
    latency_ms = FastestOfClassMs(p.timed);
    double sum_ms = 0.0;
    for (double ms : latency_ms) sum_ms += ms;
    throughput = static_cast<double>(w_.connections) * 1e3 *
                 static_cast<double>(latency_ms.size()) / sum_ms;
  }
  return {
      {"setup_s", *std::min_element(p.setup_s.begin(), p.setup_s.end()), "s"},
      {"latency_p50_ms", Quantile(latency_ms, 0.50), "ms"},
      {"latency_p90_ms", Quantile(latency_ms, 0.90), "ms"},
      {"throughput_rps", throughput, "req/s"},
      {"peak_rss_mb", Median(p.rss_mb), "MiB"},
  };
}

Result<std::vector<Metric>> Bench::PerLayer(const Phase& untraced,
                                            const Phase& traced) const {
  // The response-side metrics describe the timed traffic only: priming and
  // warm-up fill the store, and their routes and evictions are not the
  // ones the end-to-end latencies measure. The replay redoes every route.
  const double n = static_cast<double>(traced.timed.size());
  std::vector<double> overhead_ms, late_ms, latency_ms;
  std::map<std::string, std::vector<double>> route_ms;
  double frame_bytes = 0.0, coalesced = 0.0, evictions = 0.0;
  for (const Sample& s : traced.timed) {
    const net::WireResponse& r = s.response;
    overhead_ms.push_back(
        (s.LatencyS() - r.seconds) * 1e3 - static_cast<double>(r.queued_ms));
    route_ms[s.Route()].push_back(r.seconds * 1e3);
    frame_bytes += static_cast<double>(s.request_bytes + s.response_bytes);
    coalesced += r.coalesced ? 1 : 0;
    evictions += static_cast<double>(r.evictions);
    late_ms.push_back(s.LateS() * 1e3);
    latency_ms.push_back(s.LatencyS() * 1e3);
  }
  auto share = [&](const char* route) {
    const auto it = route_ms.find(route);
    return it == route_ms.end()
               ? 0.0
               : static_cast<double>(it->second.size()) / n;
  };
  auto p50 = [&](const char* route) {
    const auto it = route_ms.find(route);
    return it == route_ms.end() ? 0.0 : Median(it->second);
  };
  const double throughput_untraced =
      static_cast<double>(untraced.timed.size()) / untraced.traffic_s;
  const double throughput_traced =
      static_cast<double>(traced.timed.size()) / traced.traffic_s;

  std::vector<Metric> metrics = {
      {"net.overhead_ms_p50", Median(overhead_ms), "ms"},
      {"net.frame_bytes", frame_bytes / n, "B"},
      {"service.exact_ms_p50", p50("exact"), "ms"},
      {"service.filter_down_ms_p50", p50("filter-down"), "ms"},
      {"service.recycle_ms_p50", p50("recycle"), "ms"},
      {"service.scratch_ms_p50", p50("scratch"), "ms"},
      {"service.route_share.exact", share("exact"), "fraction"},
      {"service.route_share.filter-down", share("filter-down"), "fraction"},
      {"service.route_share.recycle", share("recycle"), "fraction"},
      {"service.route_share.scratch", share("scratch"), "fraction"},
      {"service.coalesced_frac", coalesced / n, "fraction"},
      {"store.evictions_per_req", evictions / n, "count"},
      {"store.bytes_mb", Median(traced.store_mb), "MiB"},
      {"obs.trace_overhead_frac", throughput_untraced / throughput_traced - 1.0,
       "fraction"},
      {"loadgen.late_ms_p99", Quantile(late_ms, 0.99), "ms"},
      {"loadgen.latency_p99_ms", Quantile(latency_ms, 0.99), "ms"},
      {"loadgen.closed_loop_rps",
       w_.rate_rps > 0.0 ? traced.closed_loop_rps : throughput_traced,
       "req/s"},
  };
  GOGREEN_ASSIGN_OR_RETURN(
      std::vector<Metric> replayed,
      ReplayLayers(dat_path_, traced.all, o_.workdir + "/replay.trace.json"));
  metrics.insert(metrics.end(), replayed.begin(), replayed.end());
  return metrics;
}

Result<std::vector<Metric>> Bench::Run() {
  if (!o_.traced) {
    GOGREEN_ASSIGN_OR_RETURN(const Phase phase, RunPhase(false, o_.seconds));
    return EndToEnd(phase);
  }
  GOGREEN_ASSIGN_OR_RETURN(const Phase untraced,
                           RunPhase(false, o_.seconds / 2));
  GOGREEN_ASSIGN_OR_RETURN(const Phase traced, RunPhase(true, o_.seconds / 2));
  return PerLayer(untraced, traced);
}

Status WriteResult(const std::string& path, bool correct, uint64_t attempted,
                   uint64_t failed, const std::vector<Metric>& metrics) {
  std::ofstream out(path);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}\n";
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

int Main(int argc, char** argv) {
  const Result<Options> options = ParseOptions(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr,
                 "gg_bench: %s\nusage: gg_bench --workload <name> --seed <n> "
                 "[--seconds <s>] [--traced] [--quick] [--workdir <dir>] "
                 "[--out <json>]\n",
                 options.status().ToString().c_str());
    return 2;
  }
  const Workload* workload = FindWorkload(options->workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "gg_bench: unknown workload %s\n",
                 options->workload.c_str());
    return 2;
  }
  gogreen::ThreadPool::SetGlobalThreads(kThreads);

  Bench bench(*options, *workload);
  Status status = bench.Prepare();
  Result<std::vector<Metric>> metrics = Status::Internal("not run");
  if (status.ok()) {
    metrics = bench.Run();
    status = metrics.status();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "gg_bench: %s\n", status.ToString().c_str());
    return 2;
  }
  for (const Metric& m : *metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "gg_bench: %s is not finite\n", m.name.c_str());
      return 2;
    }
    std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = bench.failed() == 0;
  if (!options->out.empty()) {
    status = WriteResult(options->out, correct, bench.attempted(),
                         bench.failed(), *metrics);
    if (!status.ok()) {
      std::fprintf(stderr, "gg_bench: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gg_bench

int main(int argc, char** argv) { return gg_bench::Main(argc, argv); }
