#include "bench/e2e/replay.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "data/dat_io.h"
#include "fpm/miner.h"
#include "net/frame.h"
#include "serve/pattern_store.h"
#include "util/run_context.h"
#include "util/timer.h"

namespace gg_bench {

namespace {

using gogreen::Result;
using gogreen::Status;
using gogreen::Timer;
namespace core = gogreen::core;
namespace fpm = gogreen::fpm;
namespace net = gogreen::net;
namespace serve = gogreen::serve;

// A replayed store must never evict: it times one Get or Put in isolation.
constexpr size_t kReplayStoreBytes = size_t{1} << 40;
// Exact hits take microseconds; repeat each so its median is not clock
// noise.
constexpr int kGetRepeats = 31;
// Net codec timing covers at most this many recorded calls.
constexpr size_t kCodecSamples = 2000;
// The scratch-miner sweep covers at most this many supports.
constexpr size_t kMaxScratchSupports = 7;

/// The route a request took, as far as the replay needs to redo it.
struct RouteKey {
  std::string route;
  uint64_t min_support = 0;
  uint64_t seed_support = 0;
  bool compressed = false;  // The recycle route built (not reused) an image.

  friend bool operator<(const RouteKey& a, const RouteKey& b) {
    return std::tie(a.route, a.min_support, a.seed_support, a.compressed) <
           std::tie(b.route, b.min_support, b.seed_support, b.compressed);
  }
};

/// A mine at `min_support` that, like the daemon's, carries an ungoverned
/// RunContext: the miners then keep the byte accounting the wide event
/// reports, at the same cost.
fpm::MineRequest GovernedAt(uint64_t min_support, gogreen::RunContext* ctx) {
  fpm::MineRequest request = fpm::MineRequest::At(min_support);
  request.run_context = ctx;
  return request;
}

/// Times calls and keeps them as Chrome trace spans.
class Recorder {
 public:
  template <typename F>
  double Time(const std::string& name, uint64_t min_support, F&& call) {
    const double start = epoch_.ElapsedSeconds();
    call();
    const double seconds = epoch_.ElapsedSeconds() - start;
    spans_.push_back({name, start * 1e6, seconds * 1e6, min_support});
    return seconds;
  }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"cat\":\"replay\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"min_support\":%llu}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start_us, s.dur_us,
                    static_cast<unsigned long long>(s.min_support));
      out << line;
    }
    out << "\n]}\n";
    out.close();
    if (!out) return Status::IOError("cannot write trace " + path);
    return Status::OK();
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double dur_us;
    uint64_t min_support;
  };
  Timer epoch_;
  std::vector<Span> spans_;
};

}  // namespace

Result<std::vector<Metric>> ReplayLayers(const std::string& dat_path,
                                         const std::vector<Sample>& samples,
                                         const std::string& trace_path) {
  Recorder rec;
  fpm::TransactionDb db;
  std::vector<double> read_s;
  for (int i = 0; i < 3; ++i) {
    Result<fpm::TransactionDb> loaded = Status::Internal("not read");
    read_s.push_back(rec.Time("data.read_dat", 0, [&] {
      loaded = gogreen::data::ReadDatFile(dat_path);
    }));
    GOGREEN_RETURN_NOT_OK(loaded.status());
    db = std::move(*loaded);
  }
  const uint64_t n = db.NumTransactions();

  // Complete sets the replayed calls start from, mined untimed.
  std::map<uint64_t, fpm::PatternSet> sets;
  auto set_at = [&](uint64_t min_support) -> Result<const fpm::PatternSet*> {
    auto it = sets.find(min_support);
    if (it == sets.end()) {
      GOGREEN_ASSIGN_OR_RETURN(
          fpm::MineResult mined,
          fpm::CreateMiner(fpm::MinerKind::kFpGrowth)
              ->Mine(db, fpm::MineRequest::At(min_support)));
      it = sets.emplace(min_support, std::move(mined.patterns)).first;
    }
    return &it->second;
  };
  auto put = [&](const fpm::PatternSet& patterns, uint64_t min_support) {
    serve::PatternStore store(serve::PatternStore::Options{kReplayStoreBytes});
    return rec.Time("store.put", min_support, [&] {
      store.Put({dat_path, "", min_support}, patterns, n);
    });
  };

  std::map<RouteKey, std::vector<double>> server_seconds;
  for (const Sample& s : samples) {
    const RouteKey key{s.Route(), s.response.min_support,
                       s.response.seed_support,
                       s.response.compress_seconds > 0.0};
    server_seconds[key].push_back(s.response.seconds);
  }

  std::vector<double> get_us, put_ms, compress_s, ratio, recycle_s, coverage;
  uint64_t items_scanned = 0, projections_built = 0;
  // (support, compress + recycle-mine seconds) per replayed recycle.
  std::vector<std::pair<uint64_t, double>> recycled;
  for (const auto& [key, seconds] : server_seconds) {
    double layer_s = 0.0;
    if (key.route == "exact") {
      GOGREEN_ASSIGN_OR_RETURN(const fpm::PatternSet* cached,
                               set_at(key.min_support));
      serve::PatternStore store(
          serve::PatternStore::Options{kReplayStoreBytes});
      const serve::StoreKey store_key{dat_path, "", key.min_support};
      store.Put(store_key, *cached, n);
      // The daemon frees its copy after the response is sent, outside its
      // service time; so does the replay.
      std::vector<double> reps;
      size_t copied = 0;
      for (int r = 0; r < kGetRepeats; ++r) {
        fpm::PatternSet copy;
        reps.push_back(rec.Time("store.get", key.min_support, [&] {
          copy = *store.Get(store_key);
        }));
        copied += copy.size();
      }
      if (copied != cached->size() * kGetRepeats) {
        return Status::Internal("replayed exact hit lost patterns");
      }
      layer_s = Median(reps);
      get_us.push_back(layer_s * 1e6);
    } else if (key.route == "filter-down") {
      GOGREEN_ASSIGN_OR_RETURN(const fpm::PatternSet* seed,
                               set_at(key.seed_support));
      fpm::PatternSet result;
      layer_s += rec.Time("pattern_set.filter_by_support", key.min_support,
                          [&] {
                            result = seed->FilterBySupport(key.min_support);
                          });
      const double p = put(result, key.min_support);
      put_ms.push_back(p * 1e3);
      layer_s += p;
    } else if (key.route == "recycle") {
      GOGREEN_ASSIGN_OR_RETURN(const fpm::PatternSet* seed,
                               set_at(key.seed_support));
      gogreen::RunContext ctx;
      core::CompressorOptions options;
      options.run_context = &ctx;
      Result<core::CompressedDb> cdb = Status::Internal("not compressed");
      core::CompressionStats cstats;
      const double c = rec.Time("core.compress_database", key.min_support, [&] {
        cdb = core::CompressDatabase(db, *seed, options, &cstats);
      });
      GOGREEN_RETURN_NOT_OK(cdb.status());
      if (key.compressed) {
        compress_s.push_back(c);
        ratio.push_back(cstats.Ratio());
        layer_s += c;
      }
      auto miner = core::CreateCompressedMiner(core::RecycleAlgo::kHMine);
      Result<fpm::MineResult> mined = Status::Internal("not mined");
      const double m = rec.Time("core.recycle_hm", key.min_support, [&] {
        mined = miner->Mine(*cdb, GovernedAt(key.min_support, &ctx));
      });
      GOGREEN_RETURN_NOT_OK(mined.status());
      recycle_s.push_back(m);
      items_scanned += mined->stats.items_scanned;
      projections_built += mined->stats.projections_built;
      recycled.emplace_back(key.min_support, (key.compressed ? c : 0.0) + m);
      const double p = put(mined->patterns, key.min_support);
      put_ms.push_back(p * 1e3);
      layer_s += m + p;
    } else if (key.route == "scratch") {
      gogreen::RunContext ctx;
      auto miner = fpm::CreateMiner(fpm::MinerKind::kHMine);
      Result<fpm::MineResult> mined = Status::Internal("not mined");
      layer_s += rec.Time("fpm.h-mine", key.min_support, [&] {
        mined = miner->Mine(db, GovernedAt(key.min_support, &ctx));
      });
      GOGREEN_RETURN_NOT_OK(mined.status());
      const double p = put(mined->patterns, key.min_support);
      put_ms.push_back(p * 1e3);
      layer_s += p;
    } else {
      return Status::InvalidArgument("unknown route " + key.route);
    }
    for (double s : seconds) {
      if (s > 0.0) coverage.push_back(layer_s / s);
    }
  }

  // Every scratch miner at the supports the daemon mined at: the recycle
  // route is only a win against the best of them. H-Mine takes seconds per
  // low support on dense data, so a wide grid is sampled evenly.
  std::set<uint64_t> mined_at;
  for (const Sample& s : samples) {
    const std::string route = s.Route();
    if (route == "recycle" || route == "scratch") {
      mined_at.insert(s.response.min_support);
    }
  }
  const std::vector<uint64_t> all_mined(mined_at.begin(), mined_at.end());
  const size_t picks = std::min(all_mined.size(), kMaxScratchSupports);
  std::set<uint64_t> supports;
  for (size_t i = 0; i < picks; ++i) {
    supports.insert(all_mined[i * all_mined.size() / picks]);
  }
  const std::pair<fpm::MinerKind, const char*> kScratch[] = {
      {fpm::MinerKind::kHMine, "scratch.hmine_s"},
      {fpm::MinerKind::kFpGrowth, "scratch.fpgrowth_s"},
      {fpm::MinerKind::kTreeProjection, "scratch.tp_s"}};
  std::map<std::string, double> scratch_total;
  std::map<uint64_t, double> best_at;
  for (uint64_t min_support : supports) {
    for (const auto& [kind, name] : kScratch) {
      gogreen::RunContext ctx;
      auto miner = fpm::CreateMiner(kind);
      Result<fpm::MineResult> mined = Status::Internal("not mined");
      const std::string span = std::string("fpm.") + fpm::MinerKindName(kind);
      const double t = rec.Time(span, min_support, [&] {
        mined = miner->Mine(db, GovernedAt(min_support, &ctx));
      });
      GOGREEN_RETURN_NOT_OK(mined.status());
      scratch_total[name] += t;
      auto [it, fresh] = best_at.emplace(min_support, t);
      if (!fresh) it->second = std::min(it->second, t);
    }
  }
  double best_total = 0.0, recycle_route_s = 0.0, best_recycled = 0.0;
  for (const auto& [min_support, t] : best_at) best_total += t;
  for (const auto& [min_support, t] : recycled) {
    const auto best = best_at.find(min_support);
    if (best == best_at.end()) continue;
    recycle_route_s += t;
    best_recycled += best->second;
  }

  // The codec on the recorded messages: encode both directions, then
  // decode the frames back.
  const size_t stride = std::max<size_t>(1, samples.size() / kCodecSamples);
  std::vector<std::string> frames;
  const double encode_s = rec.Time("net.encode", 0, [&] {
    for (size_t i = 0; i < samples.size(); i += stride) {
      for (const std::string& json : {samples[i].request.ToJson(),
                                      samples[i].response.ToJson()}) {
        // A failed encode leaves an empty frame, which fails to decode.
        Result<std::string> frame = net::EncodeFrame(json);
        frames.push_back(frame.ok() ? std::move(*frame) : std::string());
      }
    }
  });
  const size_t calls = frames.size() / 2;
  size_t decoded = 0;
  const double decode_s = rec.Time("net.decode", 0, [&] {
    std::string payload;
    size_t consumed = 0;
    for (size_t i = 0; i < frames.size(); ++i) {
      Result<bool> framed = net::TryDecodeFrame(frames[i], &payload, &consumed);
      if (!framed.ok() || !*framed) continue;
      const bool ok = i % 2 == 0 ? net::WireRequest::FromJson(payload).ok()
                                 : net::WireResponse::FromJson(payload).ok();
      decoded += ok ? 1 : 0;
    }
  });
  if (calls == 0 || decoded != frames.size()) {
    return Status::Internal("recorded wire messages do not round-trip");
  }

  GOGREEN_RETURN_NOT_OK(rec.Write(trace_path));
  return std::vector<Metric>{
      {"net.encode_us", encode_s / static_cast<double>(calls) * 1e6, "us"},
      {"net.decode_us", decode_s / static_cast<double>(calls) * 1e6, "us"},
      {"store.get_us_p50", Median(get_us), "us"},
      {"store.put_ms_p50", Median(put_ms), "ms"},
      {"compress.s_p50", Median(compress_s), "s"},
      {"compress.ratio", Median(ratio), "ratio"},
      {"recycle_mine.s_p50", Median(recycle_s), "s"},
      {"recycle_mine.items_scanned", static_cast<double>(items_scanned),
       "count"},
      {"recycle_mine.projections_built",
       static_cast<double>(projections_built), "count"},
      {"scratch.hmine_s", scratch_total["scratch.hmine_s"], "s"},
      {"scratch.fpgrowth_s", scratch_total["scratch.fpgrowth_s"], "s"},
      {"scratch.tp_s", scratch_total["scratch.tp_s"], "s"},
      {"scratch.best_s", best_total, "s"},
      {"recycle.vs_best_scratch",
       best_recycled > 0.0 ? recycle_route_s / best_recycled : 0.0, "ratio"},
      {"data.read_dat_s", Median(read_s), "s"},
      {"trace.coverage", Median(coverage), "fraction"},
  };
}

}  // namespace gg_bench
