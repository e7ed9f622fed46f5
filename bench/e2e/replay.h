// The per-layer half of a traced run. The daemon reports, per request, its
// route and its service time; the replay re-runs in-process, on the dataset
// file the daemon loaded, the public function of each layer that route went
// through (data::ReadDatFile, PatternStore::Get/Put, core::CompressDatabase,
// the compressed and scratch miners, the net codec) and times each call.
// The daemon's own serve.* spans are diffs of process-global aggregates and
// so exact only while one request runs at a time; the replay gives layer
// times on every workload, concurrent ones included.

#ifndef GOGREEN_BENCH_E2E_REPLAY_H_
#define GOGREEN_BENCH_E2E_REPLAY_H_

#include <string>
#include <vector>

#include "bench/e2e/loadgen.h"
#include "bench/e2e/metrics.h"
#include "util/status.h"

namespace gg_bench {

/// Replays the routes of `samples` (answered by a daemon serving
/// `dat_path`) and returns the replay's per-layer metrics. Writes the
/// replay's spans as Chrome trace_event JSON to `trace_path`.
gogreen::Result<std::vector<Metric>> ReplayLayers(
    const std::string& dat_path, const std::vector<Sample>& samples,
    const std::string& trace_path);

}  // namespace gg_bench

#endif  // GOGREEN_BENCH_E2E_REPLAY_H_
