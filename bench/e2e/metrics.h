// Metric records and the order statistics gg_bench reports them with.

#ifndef GOGREEN_BENCH_E2E_METRICS_H_
#define GOGREEN_BENCH_E2E_METRICS_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace gg_bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The q-quantile (0 <= q <= 1) of `values`, interpolating linearly between
/// order statistics; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace gg_bench

#endif  // GOGREEN_BENCH_E2E_METRICS_H_
