// The four gg_bench workloads and the seeded datasets they run on.
//
// Seed 0 serves the paper-figure dataset itself (data::MakeDataset). Any
// other seed serves an isomorphic copy: the item ids permuted and the
// transactions shuffled, both by the seed. Mining work is a property of
// the data up to relabelling, so a hold-out seed changes every byte the
// daemon reads and the order it sees them in, but not how many patterns
// each support has — fresh draws from the generators would (the weather
// set at 1% swings from 230k to 807k patterns between generator seeds),
// and the run-to-run spread would then measure the generator instead of
// the code. The seed also drives the Zipf draws and Poisson arrivals
// (gg_bench.cc).

#ifndef GOGREEN_BENCH_E2E_WORKLOADS_H_
#define GOGREEN_BENCH_E2E_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "fpm/transaction_db.h"
#include "util/env.h"
#include "util/status.h"

namespace gg_bench {

enum class WorkloadKind { kRelaxSparse, kRelaxDense, kHotRead, kMixedOpen };

struct Workload {
  WorkloadKind kind;
  const char* name;
  gogreen::data::DatasetId dataset;
  gogreen::BenchScale scale;
  /// Relax workloads: the support sequence of one session, in order.
  /// hot-read: the supports primed (untimed, in this order) and then read.
  /// mixed-open: the support grid reads and writes draw from.
  std::vector<double> supports;
  size_t connections;
  /// Daemon flags beyond the common ones (-i, --socket, --threads 2).
  std::vector<std::string> daemon_flags;
  /// Open loop only: the Poisson arrival rate, requests per second.
  double rate_rps = 0.0;
};

/// All workloads, in the order `run.py --workload all` runs them.
const std::vector<Workload>& AllWorkloads();

/// The workload called `name`, or null.
const Workload* FindWorkload(const std::string& name);

/// The dataset `id` at `scale` for `seed` (see the file comment).
gogreen::Result<gogreen::fpm::TransactionDb> MakeSeededDataset(
    gogreen::data::DatasetId id, gogreen::BenchScale scale, uint64_t seed);

}  // namespace gg_bench

#endif  // GOGREEN_BENCH_E2E_WORKLOADS_H_
