#include "fpm/hmine.h"

#include <algorithm>
#include <memory>
#include <span>

#include "fpm/flist.h"
#include "fpm/fpgrowth.h"
#include "fpm/parallel_mine.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gogreen::fpm {

namespace {

/// A suffix of one ranked transaction: the projection of that transaction
/// into the current prefix's projected database.
struct Suffix {
  Tid tid;
  uint32_t pos;  // First item of the suffix within the ranked transaction.
};

/// Heap footprint of one level's suffix buckets (bucket i holds one Suffix
/// per supporting row, i.e. freq_counts[i] entries), for budget accounting.
size_t AllBucketBytes(const std::vector<uint64_t>& freq_counts) {
  uint64_t total = 0;
  for (uint64_t c : freq_counts) total += c;
  return static_cast<size_t>(total) * sizeof(Suffix);
}

/// Row floor of the dense switch (HMineContext::IsDense). Below it a
/// projection is cheap to thread whatever its fill, and building a tree
/// costs more than it saves: without the floor, weather-sub at 1% mined
/// about 35% slower (DESIGN.md §7).
constexpr size_t kDenseMinRows = 512;

/// RowSource concept: Transaction(Tid) -> span of ranks, ascending.
template <typename RowSource>
class HMineContext {
 public:
  HMineContext(const RowSource& ranked, const FList& flist,
               uint64_t min_support, PatternSet* out, MiningStats* stats)
      : ranked_(ranked),
        flist_(flist),
        min_support_(min_support),
        out_(out),
        stats_(stats),
        counts_(flist.size(), 0),
        bucket_of_(flist.size(), SIZE_MAX) {}

  /// Redirects emission and counters into a per-worker shard; scratch
  /// buffers are kept, so a lane-local context serves successive subtrees.
  void SetSinks(PatternSet* out, MiningStats* stats) {
    out_ = out;
    stats_ = stats;
  }

  /// Attaches the run governor: Mine() then polls between extensions and
  /// charges suffix buckets against the byte budget. Null detaches.
  void BindRunContext(RunContext* ctx) { run_ctx_ = ctx; }

  /// One level of H-Mine: counts candidate extensions of `projs` and threads
  /// the suffix links of the frequent ones. Two passes, as in the paper:
  /// pass 1 counts (Count), pass 2 builds the per-extension suffix queues,
  /// the hyperlinks (Thread). On return `frequent` holds the frequent
  /// extension ranks ascending, `freq_counts[i]` their supports, `buckets[i]`
  /// their projected databases.
  void Expand(const std::vector<Suffix>& projs, std::vector<Rank>* frequent,
              std::vector<uint64_t>* freq_counts,
              std::vector<std::vector<Suffix>>* buckets) {
    Count(projs, frequent, freq_counts);
    Thread(projs, *frequent, *freq_counts, buckets);
  }

  /// Mines the projected database `projs` under `prefix` (prefix given in
  /// ranks). A dense projection is handed to an FP-tree, where shared
  /// prefixes are counted once; any other expands one H-struct level and
  /// recurses depth-first in ascending extension-rank order. Returns false
  /// iff a governed stop abandoned part of the subtree (always true
  /// ungoverned).
  bool Mine(const std::vector<Suffix>& projs, std::vector<Rank>* prefix) {
    std::vector<Rank> frequent;
    std::vector<uint64_t> freq_counts;
    Count(projs, &frequent, &freq_counts);
    if (IsDense(projs.size(), freq_counts)) {
      return MineDense(projs, frequent, prefix);
    }
    std::vector<std::vector<Suffix>> buckets;
    Thread(projs, frequent, freq_counts, &buckets);
    return MineLevel(frequent, freq_counts, &buckets, prefix);
  }

  /// Mines an expanded level (Expand's outputs) under `prefix`: emits each
  /// frequent extension and recurses into its bucket, releasing buckets as
  /// it goes. Returns false iff a governed stop abandoned work.
  bool MineLevel(const std::vector<Rank>& frequent,
                 const std::vector<uint64_t>& freq_counts,
                 std::vector<std::vector<Suffix>>* buckets,
                 std::vector<Rank>* prefix) {
    // The suffix buckets are this level's dominant scratch; charge them for
    // the time the recursion below keeps them alive.
    const ScopedBytes charge(
        run_ctx_, run_ctx_ != nullptr ? AllBucketBytes(freq_counts) : 0);

    bool completed = true;
    for (size_t i = 0; i < frequent.size(); ++i) {
      if (run_ctx_ != nullptr && run_ctx_->ShouldStop()) {
        completed = false;
        break;
      }
      prefix->push_back(frequent[i]);
      EmitPattern(*prefix, freq_counts[i]);
      if (!Mine((*buckets)[i], prefix)) completed = false;
      prefix->pop_back();
      (*buckets)[i].clear();
      (*buckets)[i].shrink_to_fit();  // Release level memory eagerly.
    }
    return completed;
  }

  void EmitPattern(const std::vector<Rank>& ranks, uint64_t support) {
    std::vector<ItemId> items = flist_.DecodeRanks(ranks);
    std::sort(items.begin(), items.end());
    out_->Add(std::move(items), support);
  }

 private:
  /// Pass 1: counts the candidate extensions of `projs` into `frequent`
  /// (ascending ranks) and `freq_counts`.
  void Count(const std::vector<Suffix>& projs, std::vector<Rank>* frequent,
             std::vector<uint64_t>* freq_counts) {
    std::vector<Rank> touched;
    for (const Suffix& s : projs) {
      const auto row = ranked_.Transaction(s.tid);
      for (size_t i = s.pos; i < row.size(); ++i) {
        if (counts_[row[i]]++ == 0) touched.push_back(row[i]);
        ++stats_->items_scanned;
      }
    }

    for (Rank r : touched) {
      if (counts_[r] >= min_support_) frequent->push_back(r);
    }
    std::sort(frequent->begin(), frequent->end());

    freq_counts->resize(frequent->size());
    for (size_t i = 0; i < frequent->size(); ++i) {
      (*freq_counts)[i] = counts_[(*frequent)[i]];
    }
    // Reset scratch counters before recursion (recursive calls reuse them).
    for (Rank r : touched) counts_[r] = 0;
  }

  /// Pass 2: threads the per-extension suffix queues (the hyperlinks) of
  /// the frequent extensions Count() found.
  void Thread(const std::vector<Suffix>& projs,
              const std::vector<Rank>& frequent,
              const std::vector<uint64_t>& freq_counts,
              std::vector<std::vector<Suffix>>* buckets) {
    if (frequent.empty()) return;
    buckets->resize(frequent.size());
    for (size_t i = 0; i < frequent.size(); ++i) {
      bucket_of_[frequent[i]] = i;
      (*buckets)[i].reserve(freq_counts[i]);
    }
    for (const Suffix& s : projs) {
      const auto row = ranked_.Transaction(s.tid);
      for (size_t i = s.pos; i < row.size(); ++i) {
        const size_t b = bucket_of_[row[i]];
        if (b != SIZE_MAX) {
          (*buckets)[b].push_back({s.tid, static_cast<uint32_t>(i + 1)});
        }
      }
    }
    // Release the scratch map before recursing (recursive calls reuse it).
    for (Rank r : frequent) bucket_of_[r] = SIZE_MAX;
    stats_->projections_built += frequent.size();
  }

  /// A projection is dense when it has at least kDenseMinRows rows and its
  /// frequent extensions fill at least half of the (row x extension)
  /// cells. There an FP-tree shares most of each row with its neighbours,
  /// while suffix threading rescans every row once per extension.
  static bool IsDense(size_t rows, const std::vector<uint64_t>& freq_counts) {
    if (rows < kDenseMinRows || freq_counts.empty()) return false;
    uint64_t filled = 0;
    for (uint64_t c : freq_counts) filled += c;
    return 2 * filled >= rows * freq_counts.size();
  }

  /// Mines a dense projection with FP-growth (MineRankRowsFP) over the
  /// suffixes it references; `frequent` is Count()'s output for them.
  bool MineDense(const std::vector<Suffix>& projs,
                 const std::vector<Rank>& frequent,
                 std::vector<Rank>* prefix) {
    std::vector<std::span<const Rank>> rows;
    rows.reserve(projs.size());
    for (const Suffix& s : projs) {
      rows.push_back(ranked_.Transaction(s.tid).subspan(s.pos));
    }
    return MineRankRowsFP(rows, frequent, flist_, min_support_, prefix, out_,
                          stats_, run_ctx_);
  }

  const RowSource& ranked_;
  const FList& flist_;
  const uint64_t min_support_;
  PatternSet* out_;
  MiningStats* stats_;
  RunContext* run_ctx_ = nullptr;
  std::vector<uint64_t> counts_;    // Scratch, zero between calls.
  std::vector<size_t> bucket_of_;   // Scratch, SIZE_MAX between calls.
};

/// Drives one full H-Mine run over `source`. With one global lane this is
/// the plain depth-first recursion; with more, the root level is expanded
/// once and its subtrees fan out to the pool, each mining into a private
/// shard merged in ascending extension order — the sequential emission
/// order, so output is bit-identical at any thread count. A governed run
/// (run_ctx != null) instead fans descending through
/// MineFirstLevelGoverned, at any lane count, so an early stop yields a
/// sound frontier. Returns false iff a governed stop abandoned work.
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
  std::vector<Rank> prefix = prefix0;
  if (run_ctx == nullptr && !ParallelMiningEnabled()) {
    root.MineLevel(frequent, freq_counts, &buckets, &prefix);
    return true;
  }

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
    std::vector<Rank> sub_prefix = prefix;
    sub_prefix.push_back(frequent[i]);
    ctx->EmitPattern(sub_prefix, freq_counts[i]);
    return ctx->Mine(buckets[i], &sub_prefix);
  };

  if (run_ctx == nullptr) {
    MineFirstLevelParallel(
        pool, frequent.size(),
        [&](MineShard* shard, size_t lane, size_t i) {
          mine_subtree(shard, lane, i);
        },
        out, stats);
    return true;
  }

  // Governed: root buckets stay live for the whole fan-out.
  const ScopedBytes root_charge(
      run_ctx, AllBucketBytes(freq_counts));
  return MineFirstLevelGoverned(pool, frequent.size(), mine_subtree, out,
                                stats, run_ctx, freq_counts,
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

Result<PatternSet> HMineMiner::MineImpl(const TransactionDb& db,
                                        uint64_t min_support) {
  stats_.Reset();
  GOGREEN_TRACE_SPAN("mine.h-mine");
  Timer timer;
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

  stats_.patterns_emitted = out.size();
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  RecordMiningStats(stats_);
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
