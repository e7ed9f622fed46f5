// Library-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms, collected in a process-global (or test-local) MetricRegistry.
//
// Design constraints (see DESIGN.md "Observability"):
//   - Near-zero overhead when nothing reads the metrics. Hot loops keep
//     their local counters (fpm::MiningStats etc.) and flush totals into
//     the registry once per run; registry instruments are plain relaxed
//     atomics, so a flush is a handful of uncontended atomic adds.
//   - Thread-safe without locking on the update path. The registry map is
//     mutex-protected, but instrument pointers are stable for the life of
//     the registry, so callers cache `Counter*` in function-local statics.
//   - Snapshot-able: `Snapshot()` copies every instrument into a plain
//     struct that serializes to JSON (`MetricsSnapshot::ToJson()`).
//
// Metric naming scheme: `<subsystem>.<what>` in snake_case, e.g.
// `mine.items_scanned`, `compress.groups_formed`, `serve.cache_hits`,
// `process.peak_rss_bytes`. Histograms of durations end in `_seconds`.

#ifndef GOGREEN_OBS_METRICS_H_
#define GOGREEN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace gogreen::obs {

/// Monotonically increasing counter. Relaxed atomics: totals are exact once
/// all writers have finished, which is all the harnesses need.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (also supports monotone max updates,
/// e.g. for peak RSS).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

  /// Raises the gauge to `v` if it is currently lower.
  void UpdateMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket counts the rest. Bounds are set at creation and
/// never change, so observation is a binary search plus one atomic add.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t TotalCount() const;
  double Sum() const;
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

  /// Default bounds for `*_seconds` histograms: 1ms .. ~100s, log-spaced.
  static std::vector<double> DefaultLatencyBounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1 entries.
  std::atomic<uint64_t> count_{0};
  // Sum accumulated as a compare-exchange loop over a double bit pattern.
  std::atomic<uint64_t> sum_bits_{0};
};

/// Plain-struct copy of a registry at one instant.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;  ///< bounds.size() + 1 (overflow last).
    uint64_t count = 0;
    double sum = 0.0;

    /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
    /// the bucket the rank falls in (Prometheus histogram_quantile
    /// semantics): the first bucket interpolates from 0, and a rank in
    /// the overflow bucket clamps to the largest finite bound. 0 when the
    /// histogram is empty.
    double Quantile(double q) const;
  };

  std::vector<std::pair<std::string, uint64_t>> counters;  // Name-sorted.
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramData> histograms;

  uint64_t CounterValue(std::string_view name, uint64_t dflt = 0) const;
  int64_t GaugeValue(std::string_view name, int64_t dflt = 0) const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{...}}}.
  std::string ToJson() const;
};

/// Name -> instrument map. Instruments are created on first use and live as
/// long as the registry; returned pointers stay valid, so hot paths should
/// resolve a name once and cache the pointer.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry every library component reports into.
  static MetricRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` only applies on first creation of the histogram.
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> bounds =
                              Histogram::DefaultLatencyBounds());

  MetricsSnapshot Snapshot() const;

  /// Zeroes every instrument (pointers stay valid). For tests and for
  /// harnesses that measure deltas across repeated runs.
  void ResetValues();

 private:
  /// Guards the name -> instrument maps only; the instruments themselves
  /// are lock-free atomics updated without mu_.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

/// Peak resident set size of this process in bytes (VmHWM on Linux,
/// ru_maxrss fallback); 0 if unavailable.
int64_t ReadPeakRssBytes();

/// Refreshes process-level gauges (`process.peak_rss_bytes`) in the global
/// registry. Call before snapshotting.
void UpdateProcessGauges();

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes). Shared by the metrics and trace serializers.
std::string JsonEscape(std::string_view s);

}  // namespace gogreen::obs

#endif  // GOGREEN_OBS_METRICS_H_
