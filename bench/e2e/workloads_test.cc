#include "bench/e2e/workloads.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/miner.h"

namespace gg_bench {
namespace {

std::vector<std::vector<gogreen::fpm::ItemId>> Rows(
    const gogreen::fpm::TransactionDb& db) {
  std::vector<std::vector<gogreen::fpm::ItemId>> rows;
  for (gogreen::fpm::Tid t = 0; t < db.NumTransactions(); ++t) {
    const auto items = db.Transaction(t);
    rows.emplace_back(items.begin(), items.end());
  }
  return rows;
}

class WorkloadDatasetTest : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadDatasetTest, SeedZeroIsThePaperFigureDataset) {
  const Workload& w = GetParam();
  auto seeded = MakeSeededDataset(w.dataset, w.scale, 0);
  auto paper = gogreen::data::MakeDataset(w.dataset, w.scale);
  ASSERT_TRUE(seeded.ok() && paper.ok());
  EXPECT_EQ(Rows(*seeded), Rows(*paper));
}

TEST_P(WorkloadDatasetTest, OtherSeedsRelabelTheSameData) {
  const Workload& w = GetParam();
  auto base = MakeSeededDataset(w.dataset, w.scale, 0);
  auto a = MakeSeededDataset(w.dataset, w.scale, 7);
  auto again = MakeSeededDataset(w.dataset, w.scale, 7);
  auto b = MakeSeededDataset(w.dataset, w.scale, 8);
  ASSERT_TRUE(base.ok() && a.ok() && again.ok() && b.ok());
  EXPECT_EQ(Rows(*a), Rows(*again));
  EXPECT_NE(Rows(*a), Rows(*base));
  EXPECT_NE(Rows(*a), Rows(*b));

  // Same size and the same multiset of item supports ...
  EXPECT_EQ(a->NumTransactions(), base->NumTransactions());
  EXPECT_EQ(a->TotalItems(), base->TotalItems());
  auto supports = [](const gogreen::fpm::TransactionDb& db) {
    std::vector<uint64_t> s = db.CountItemSupports();
    s.erase(std::remove(s.begin(), s.end(), 0), s.end());
    std::sort(s.begin(), s.end());
    return s;
  };
  EXPECT_EQ(supports(*a), supports(*base));

  // ... so the same number of patterns at the workload's lowest support.
  const double lowest =
      *std::min_element(w.supports.begin(), w.supports.end());
  const uint64_t abs =
      gogreen::fpm::AbsoluteSupport(lowest, base->NumTransactions());
  auto count = [&](const gogreen::fpm::TransactionDb& db) {
    auto mined = gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kFpGrowth)
                     ->Mine(db, gogreen::fpm::MineRequest::At(abs));
    return mined.ok() ? mined->patterns.size() : 0;
  };
  EXPECT_EQ(count(*a), count(*base));
}

std::string ParamName(const ::testing::TestParamInfo<Workload>& tpi) {
  std::string name = tpi.param.name;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDatasetTest,
                         ::testing::ValuesIn(AllWorkloads()), ParamName);

}  // namespace
}  // namespace gg_bench
