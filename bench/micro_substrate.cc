// google-benchmark microbenchmarks for the substrate hot paths: F-list
// construction, transaction rank-encoding, trie subset counting, slice
// projection, and the two compressor matchers.

#include <benchmark/benchmark.h>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "core/slice_db.h"
#include "data/quest_gen.h"
#include "fpm/flist.h"
#include "fpm/miner.h"
#include "fpm/pattern_trie.h"

namespace {

using gogreen::core::CompressionStrategy;
using gogreen::core::MatcherKind;
using gogreen::data::GenerateQuest;
using gogreen::data::QuestConfig;
using gogreen::fpm::FList;
using gogreen::fpm::PatternSet;
using gogreen::fpm::PatternTrie;
using gogreen::fpm::TransactionDb;

const TransactionDb& BenchDb() {
  static const TransactionDb* db = [] {
    QuestConfig cfg;
    cfg.num_transactions = 20000;
    cfg.avg_transaction_len = 12.0;
    cfg.num_items = 2000;
    cfg.num_patterns = 100;
    cfg.weight_skew = 2.0;
    cfg.seed = 99;
    auto result = GenerateQuest(cfg);
    // gogreen-lint: allow(naked-new): intentionally leaked bench fixture
    return new TransactionDb(std::move(result).value());
  }();
  return *db;
}

const PatternSet& BenchFp() {
  static const PatternSet* fp = [] {
    auto miner =
        gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kFpGrowth);
    auto result = miner->Mine(BenchDb(), gogreen::fpm::MineRequest::At(400));
    // gogreen-lint: allow(naked-new): intentionally leaked bench fixture
    return new PatternSet(std::move(result->patterns));
  }();
  return *fp;
}

void BM_FListBuild(benchmark::State& state) {
  const TransactionDb& db = BenchDb();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FList::Build(db, 200));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.TotalItems()));
}
BENCHMARK(BM_FListBuild);

void BM_RankedDbBuild(benchmark::State& state) {
  const TransactionDb& db = BenchDb();
  const FList flist = FList::Build(db, 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gogreen::fpm::RankedDb::Build(db, flist));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.TotalItems()));
}
BENCHMARK(BM_RankedDbBuild);

void BM_TrieSubsetCounting(benchmark::State& state) {
  const TransactionDb& db = BenchDb();
  PatternTrie trie;
  for (const auto& p : BenchFp()) trie.Insert(gogreen::fpm::ItemSpan(p.items));
  for (auto _ : state) {
    for (gogreen::fpm::Tid t = 0; t < 2000; ++t) {
      trie.AddSupportForTransaction(db.Transaction(t));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_TrieSubsetCounting);

void BM_CompressLinear(benchmark::State& state) {
  for (auto _ : state) {
    auto cdb = gogreen::core::CompressDatabase(
        BenchDb(), BenchFp(),
        {CompressionStrategy::kMcp, MatcherKind::kLinear});
    benchmark::DoNotOptimize(cdb);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(BenchDb().NumTransactions()));
}
BENCHMARK(BM_CompressLinear);

void BM_CompressInverted(benchmark::State& state) {
  for (auto _ : state) {
    auto cdb = gogreen::core::CompressDatabase(
        BenchDb(), BenchFp(),
        {CompressionStrategy::kMcp, MatcherKind::kInvertedIndex});
    benchmark::DoNotOptimize(cdb);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(BenchDb().NumTransactions()));
}
BENCHMARK(BM_CompressInverted);

void BM_ProjectSlices(benchmark::State& state) {
  auto cdb = gogreen::core::CompressDatabase(
      BenchDb(), BenchFp(), {CompressionStrategy::kMcp, MatcherKind::kAuto});
  const FList flist = FList::FromCounts(
      cdb->CountItemSupports(cdb->ItemUniverseSize()), 200);
  const gogreen::core::SliceDb sdb =
      gogreen::core::SliceDb::Build(*cdb, flist);
  for (auto _ : state) {
    for (gogreen::fpm::Rank r = 0; r < std::min<size_t>(flist.size(), 16);
         ++r) {
      benchmark::DoNotOptimize(gogreen::core::ProjectSlices(sdb.slices, r));
    }
  }
}
BENCHMARK(BM_ProjectSlices);

void BM_MineHMine(benchmark::State& state) {
  const uint64_t minsup = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto miner = gogreen::fpm::CreateMiner(gogreen::fpm::MinerKind::kHMine);
    benchmark::DoNotOptimize(
        miner->Mine(BenchDb(), gogreen::fpm::MineRequest::At(minsup)));
  }
}
BENCHMARK(BM_MineHMine)->Arg(400)->Arg(200);

void BM_MineRecycleHM(benchmark::State& state) {
  const uint64_t minsup = static_cast<uint64_t>(state.range(0));
  auto cdb = gogreen::core::CompressDatabase(
      BenchDb(), BenchFp(), {CompressionStrategy::kMcp, MatcherKind::kAuto});
  for (auto _ : state) {
    auto miner = gogreen::core::CreateCompressedMiner(
        gogreen::core::RecycleAlgo::kHMine);
    benchmark::DoNotOptimize(
        miner->Mine(*cdb, gogreen::fpm::MineRequest::At(minsup)));
  }
}
BENCHMARK(BM_MineRecycleHM)->Arg(400)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
