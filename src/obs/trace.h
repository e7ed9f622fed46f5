// Scoped-span tracing: RAII spans (`GOGREEN_TRACE_SPAN("compress.cover")`)
// that record per-phase wall time with nesting, aggregate per span name,
// and optionally export Chrome `trace_event` JSON (load the file at
// chrome://tracing or https://ui.perfetto.dev for a flame graph).
//
// The tracer is off by default: a disabled span costs one relaxed atomic
// load in its constructor and nothing in its destructor, which keeps the
// instrumented library inside the observability overhead budget (< 2% on
// micro_substrate; spans are placed at phase granularity, never per item).
//
// Span naming convention mirrors the metric scheme: `<subsystem>.<phase>`,
// e.g. `mine.h-mine`, `compress.cover`, `serve.lookup`. Nested spans are
// recorded with their depth so the Chrome export reconstructs the stack.

#ifndef GOGREEN_OBS_TRACE_H_
#define GOGREEN_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace gogreen::obs {

/// One finished span.
struct TraceEvent {
  std::string name;
  double start_us = 0.0;  ///< Microseconds since tracer enable.
  double dur_us = 0.0;
  uint32_t tid = 0;   ///< Small dense per-thread id.
  uint32_t depth = 0;  ///< Nesting depth within its thread at entry.
};

/// Collects spans while enabled. Aggregation by name is always maintained;
/// full event recording (needed for the Chrome export) is opt-in because a
/// long mining run can produce many spans.
class Tracer {
 public:
  static Tracer& Global();

  /// Starts collecting. With `record_events` false only per-name aggregate
  /// durations are kept (enough for --metrics-json and the bench phase
  /// split); with true, every span is stored for ChromeTraceJson().
  void Enable(bool record_events);
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Called by TraceSpan on destruction; not part of the public surface.
  void Record(const char* name, double start_us, double dur_us,
              uint32_t depth);

  /// Total seconds spent per span name (inclusive of nested spans), sorted
  /// by name. Includes only spans finished since Enable()/Reset().
  std::vector<std::pair<std::string, double>> AggregateSeconds() const;

  /// Point-in-time copy of the per-name aggregate microseconds. Two
  /// snapshots bracket a unit of work; DeltaSeconds attributes the span
  /// time in between to it. This is how the service keeps one request's
  /// phase timings from including its predecessors' in a long session
  /// (the aggregates themselves are cumulative for the process).
  using SpanSnapshot = std::map<std::string, double, std::less<>>;
  SpanSnapshot AggregateSnapshot() const;

  /// Per-name seconds accumulated between `before` and `after`, sorted by
  /// name; names whose delta is zero are omitted.
  static std::vector<std::pair<std::string, double>> DeltaSeconds(
      const SpanSnapshot& before, const SpanSnapshot& after);

  /// Total seconds recorded for one span name (0 if never seen).
  double SecondsFor(std::string_view name) const;

  /// Recorded events (empty unless enabled with record_events=true).
  std::vector<TraceEvent> Events() const;

  /// Chrome trace_event JSON ("traceEvents" array of complete "X" events).
  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Drops all aggregates and events; keeps the enabled state.
  void Reset();

  /// Microseconds since the tracer's epoch (process-stable timebase).
  double NowMicros() const;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;

  mutable Mutex mu_;
  bool record_events_ GUARDED_BY(mu_) = false;
  std::map<std::string, double, std::less<>> aggregate_us_ GUARDED_BY(mu_);
  std::vector<TraceEvent> events_ GUARDED_BY(mu_);
};

/// RAII span. Construct on the stack; the time between construction and
/// destruction is attributed to `name`. `name` must outlive the span
/// (string literals in practice).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  double start_us_ = 0.0;
  uint32_t depth_ = 0;
  bool active_;
};

#define GOGREEN_OBS_CONCAT_INNER(a, b) a##b
#define GOGREEN_OBS_CONCAT(a, b) GOGREEN_OBS_CONCAT_INNER(a, b)

/// Opens a scoped span covering the rest of the enclosing block.
#define GOGREEN_TRACE_SPAN(name) \
  ::gogreen::obs::TraceSpan GOGREEN_OBS_CONCAT(gogreen_span_, __LINE__)(name)

}  // namespace gogreen::obs

#endif  // GOGREEN_OBS_TRACE_H_
