#include "fpm/hmine.h"

#include <memory>

#include "fpm/parallel_mine.h"
#include "util/thread_pool.h"

namespace gogreen::fpm {

namespace {

/// Drives one full H-Mine run over `source`: the root level is expanded
/// once, then MineFirstLevel mines its subtrees, each into a private shard
/// merged in ascending extension order, so output is bit-identical at any
/// thread count and a governed stop yields a sound frontier. Returns false
/// iff a governed stop abandoned work.
template <typename RowSource>
bool MineHM(const RowSource& source, const FList& flist, uint64_t min_support,
            const std::vector<Suffix>& all, const std::vector<Rank>& prefix0,
            PatternSet* out, MiningStats* stats, RunContext* run_ctx) {
  // The root level is always an H-struct, whatever its shape, so the dense
  // switch below it is decided identically at every thread count.
  HMineContext<RowSource> root(source, flist, min_support, out, stats);
  std::vector<Rank> frequent;
  std::vector<uint64_t> freq_counts;
  std::vector<std::vector<Suffix>> buckets;
  root.Expand(all, &frequent, &freq_counts, &buckets);

  // Lane-local contexts reuse their rank-indexed scratch across subtrees.
  // The pool is pinned here so lane ids stay < lane_ctx.size() even if the
  // global pool is reconfigured concurrently.
  const std::shared_ptr<ThreadPool> pool = ThreadPool::Global();
  std::vector<std::unique_ptr<HMineContext<RowSource>>> lane_ctx(
      pool->threads());
  const auto mine_subtree = [&](MineShard* shard, size_t lane,
                                size_t i) -> bool {
    auto& ctx = lane_ctx[lane];
    if (!ctx) {
      ctx = std::make_unique<HMineContext<RowSource>>(
          source, flist, min_support, nullptr, nullptr);
      ctx->BindRunContext(run_ctx);
    }
    ctx->SetSinks(&shard->patterns, &shard->stats);
    std::vector<Rank> sub_prefix = prefix0;
    sub_prefix.push_back(frequent[i]);
    ctx->EmitPattern(sub_prefix, freq_counts[i]);
    const bool completed = ctx->Mine(buckets[i], &sub_prefix);
    buckets[i].clear();
    buckets[i].shrink_to_fit();  // Release level memory eagerly.
    return completed;
  };

  // Root buckets are charged for the whole fan-out.
  const ScopedBytes root_charge(
      run_ctx, run_ctx != nullptr
                   ? HMineContext<RowSource>::BucketBytes(freq_counts)
                   : 0);
  return MineFirstLevel(pool, frequent.size(), mine_subtree, out, stats,
                        run_ctx, freq_counts,
                        /*mark_frontier=*/prefix0.empty());
}

/// Root-level Expand() repackaged into the neutral view the validators
/// consume. `all` must be the root projection (every non-empty row at
/// position 0).
template <typename RowSource>
check::HStructView BuildRootHStructView(const RowSource& ranked,
                                        const FList& flist,
                                        uint64_t min_support,
                                        const std::vector<Suffix>& all) {
  MiningStats scratch_stats;
  HMineContext<RowSource> ctx(ranked, flist, min_support, nullptr,
                              &scratch_stats);
  std::vector<Rank> frequent;
  std::vector<uint64_t> freq_counts;
  std::vector<std::vector<Suffix>> buckets;
  ctx.Expand(all, &frequent, &freq_counts, &buckets);

  check::HStructView view;
  view.frequent = std::move(frequent);
  view.counts = std::move(freq_counts);
  view.num_ranks = flist.size();
  view.buckets.resize(buckets.size());
  for (size_t i = 0; i < buckets.size(); ++i) {
    view.buckets[i].reserve(buckets[i].size());
    for (const Suffix& s : buckets[i]) {
      view.buckets[i].push_back({s.tid, s.pos});
    }
  }
  return view;
}

}  // namespace

check::HStructView DebugRootHStruct(const RankedDb& ranked, const FList& flist,
                                    uint64_t min_support) {
  std::vector<Suffix> all;
  all.reserve(ranked.NumTransactions());
  for (Tid t = 0; t < ranked.NumTransactions(); ++t) {
    if (!ranked.Transaction(t).empty()) all.push_back({t, 0});
  }
  return BuildRootHStructView(ranked, flist, min_support, all);
}

PatternSet HMineMiner::MineImpl(const TransactionDb& db,
                                uint64_t min_support) {
  PatternSet out;

  const FList flist = FList::Build(db, min_support);
  if (!flist.empty()) {
    const RankedDb ranked = RankedDb::Build(db, flist);

    std::vector<Suffix> all;
    all.reserve(ranked.NumTransactions());
    for (Tid t = 0; t < ranked.NumTransactions(); ++t) {
      if (!ranked.Transaction(t).empty()) all.push_back({t, 0});
    }

    if (check::ValidationEnabled()) {
      GOGREEN_VALIDATE_OR_DIE(check::ValidateFList(flist, min_support));
      const check::HStructView root =
          BuildRootHStructView(ranked, flist, min_support, all);
      GOGREEN_VALIDATE_OR_DIE(check::ValidateHStruct(
          root, [&](Tid t) { return ranked.Transaction(t); }, min_support));
    }

    MineHM(ranked, flist, min_support, all, {}, &out, &stats_, run_ctx_);
  }
  return out;
}

bool MineRankedRowsHM(const std::vector<std::vector<Rank>>& rows,
                      const FList& flist, uint64_t min_support,
                      const std::vector<Rank>& prefix_ranks, PatternSet* out,
                      MiningStats* stats, RunContext* run_ctx) {
  struct VecRows {
    const std::vector<std::vector<Rank>>& rows;
    size_t NumTransactions() const { return rows.size(); }
    std::span<const Rank> Transaction(Tid t) const {
      return {rows[t].data(), rows[t].size()};
    }
  };
  const VecRows source{rows};
  std::vector<Suffix> all;
  all.reserve(rows.size());
  for (Tid t = 0; t < rows.size(); ++t) {
    if (!rows[t].empty()) all.push_back({t, 0});
  }
  return MineHM(source, flist, min_support, all, prefix_ranks, out, stats,
                run_ctx);
}

}  // namespace gogreen::fpm
