// The load generator: drives the daemon's wire protocol over up to a few
// unix-socket connections from one event-loop thread, and times every
// request on the client side.
//
// A closed loop sends a connection's next request as soon as its previous
// answer arrives; an open loop sends on a fixed schedule, and a request
// due while every connection is busy waits in the generator. Either way a
// request's latency runs from when it was due, so a stall also charges
// the requests queued behind it.

#ifndef GOGREEN_BENCH_E2E_LOADGEN_H_
#define GOGREEN_BENCH_E2E_LOADGEN_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "util/status.h"

namespace gg_bench {

/// One answered mine request. Times are seconds since the traffic began.
struct Sample {
  double due_s = 0.0;   ///< Scheduled (open) or previous answer (closed).
  double sent_s = 0.0;
  double done_s = 0.0;
  size_t request_bytes = 0;   ///< Whole frame, header included.
  size_t response_bytes = 0;
  gogreen::net::WireRequest request;
  gogreen::net::WireResponse response;

  double LatencyS() const { return done_s - due_s; }
  double LateS() const { return sent_s - due_s; }
  /// exact, filter-down, recycle or scratch (the service calls it "none").
  std::string Route() const {
    return response.route == "none" ? "scratch" : response.route;
  }
};

struct Traffic {
  /// Closed loop: the support connection `conn` sends next, given the
  /// time since the traffic began; nullopt retires the connection.
  std::function<std::optional<double>(size_t conn, double now_s)> next;
  /// Open loop (used when `next` is empty): (due time, support) pairs in
  /// ascending due order.
  std::vector<std::pair<double, double>> schedule;
};

/// Opens `connections` connections to the daemon at `socket_path` and
/// drives `traffic` to completion. Returns every answered request, in
/// completion order. Fails on a transport or framing error.
gogreen::Result<std::vector<Sample>> Drive(const std::string& socket_path,
                                           size_t connections,
                                           const Traffic& traffic);

}  // namespace gg_bench

#endif  // GOGREEN_BENCH_E2E_LOADGEN_H_
