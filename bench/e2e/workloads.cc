#include "bench/e2e/workloads.h"

#include <numeric>
#include <utility>

#include "util/random.h"

namespace gg_bench {

namespace {

using gogreen::BenchScale;
using gogreen::data::DatasetId;

std::vector<double> Grid(double lo, double hi, size_t points) {
  std::vector<double> grid;
  for (size_t i = 0; i < points; ++i) {
    grid.push_back(lo + (hi - lo) * static_cast<double>(i) /
                            static_cast<double>(points - 1));
  }
  return grid;
}

template <typename T>
void Shuffle(std::vector<T>* values, gogreen::Random* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[rng->Uniform(i)]);
  }
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      {WorkloadKind::kRelaxSparse,
       "relax-sparse",
       DatasetId::kWeatherSub,
       BenchScale::kSmoke,
       {0.05, 0.04, 0.03, 0.02, 0.015, 0.01, 0.05, 0.045, 0.045},
       1,
       {}},
      {WorkloadKind::kRelaxDense,
       "relax-dense",
       DatasetId::kConnect4Sub,
       BenchScale::kDefault,
       {0.95, 0.93, 0.92, 0.91, 0.90, 0.88, 0.85, 0.95, 0.94},
       1,
       {}},
      {WorkloadKind::kHotRead,
       "hot-read",
       DatasetId::kPumsbSub,
       BenchScale::kDefault,
       {0.90, 0.88, 0.87, 0.86, 0.85, 0.84, 0.82, 0.83},
       2,
       {}},
      {WorkloadKind::kMixedOpen,
       "mixed-open",
       DatasetId::kConnect4Sub,
       BenchScale::kDefault,
       Grid(0.85, 0.95, 21),
       4,
       {"--store-mb", "32"},
       200.0},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

gogreen::Result<gogreen::fpm::TransactionDb> MakeSeededDataset(
    DatasetId id, BenchScale scale, uint64_t seed) {
  GOGREEN_ASSIGN_OR_RETURN(gogreen::fpm::TransactionDb base,
                           gogreen::data::MakeDataset(id, scale));
  if (seed == 0) return base;

  gogreen::Random rng(seed);
  std::vector<gogreen::fpm::ItemId> relabel(base.ItemUniverseSize());
  std::iota(relabel.begin(), relabel.end(), 0);
  Shuffle(&relabel, &rng);
  std::vector<size_t> order(base.NumTransactions());
  std::iota(order.begin(), order.end(), 0);
  Shuffle(&order, &rng);

  gogreen::fpm::TransactionDb db;
  db.Reserve(base.NumTransactions(), base.TotalItems());
  std::vector<gogreen::fpm::ItemId> row;
  for (size_t t : order) {
    row.clear();
    for (gogreen::fpm::ItemId item :
         base.Transaction(static_cast<gogreen::fpm::Tid>(t))) {
      row.push_back(relabel[item]);
    }
    db.AddTransaction(row);
  }
  return db;
}

}  // namespace gg_bench
