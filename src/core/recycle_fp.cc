#include "core/recycle_fp.h"

#include <algorithm>
#include <memory>

#include "check/check_db.h"
#include "core/slice_db.h"
#include "fpm/parallel_mine.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gogreen::core {

namespace {

using fpm::Rank;

class RecycleFpContext {
 public:
  explicit RecycleFpContext(SliceMiningContext* base) : base_(base) {}

  /// Returns false iff a governed stop abandoned part of the subtree.
  bool Mine(const std::vector<WeightedSlice>& slices,
            std::vector<Rank>* prefix) {
    std::vector<uint64_t> freq_counts;
    const std::vector<Rank> frequent =
        base_->CountFrequentWeighted(slices, &freq_counts);
    if (frequent.empty()) return true;

    if (base_->TrySingleGroupWeighted(slices, frequent, freq_counts,
                                      prefix)) {
      return true;
    }

    bool completed = true;
    for (size_t i = 0; i < frequent.size(); ++i) {
      if (base_->ShouldStop()) {
        completed = false;
        break;
      }
      prefix->push_back(frequent[i]);
      base_->EmitPattern(*prefix, freq_counts[i]);
      const std::vector<WeightedSlice> projected =
          ProjectWeightedSlices(slices, frequent[i]);
      ++base_->stats()->projections_built;
      // The projected slices are this step's dominant scratch; charge them
      // while the recursion below keeps them alive.
      const ScopedBytes charge(base_->run_context(),
                               base_->run_context() != nullptr
                                   ? ApproxWeightedSliceBytes(projected)
                                   : 0);
      if (!projected.empty() && !Mine(projected, prefix)) completed = false;
      prefix->pop_back();
    }
    return completed;
  }

 private:
  SliceMiningContext* base_;
};

}  // namespace

Result<fpm::PatternSet> RecycleFpMiner::MineImpl(
    const CompressedDb& cdb, uint64_t min_support) {
  stats_.Reset();
  GOGREEN_TRACE_SPAN("mine.recycle-fp");
  Timer timer;
  fpm::PatternSet out;

  const fpm::FList flist = fpm::FList::FromCounts(
      cdb.CountItemSupports(cdb.ItemUniverseSize()), min_support);
  if (check::ValidationEnabled()) {
    GOGREEN_VALIDATE_OR_DIE(check::ValidateCompressedDb(cdb, nullptr));
    GOGREEN_VALIDATE_OR_DIE(check::ValidateFList(flist, min_support));
  }
  if (!flist.empty()) {
    const SliceDb sdb = SliceDb::Build(cdb, flist);
    SliceMiningContext base(flist, min_support, &out, &stats_);
    base.BindRunContext(run_ctx_);
    std::vector<Rank> prefix;
    const std::vector<WeightedSlice> root = BuildWeightedSlices(sdb);

    if (run_ctx_ == nullptr && !fpm::ParallelMiningEnabled()) {
      RecycleFpContext ctx(&base);
      ctx.Mine(root, &prefix);
    } else {
      // Expand the root level once (count + the Lemma 3.1 shortcut), then
      // fan the first-level projections out to the pool. Every worker
      // projects from the shared read-only root slices; ascending-rank
      // shard merge reproduces the sequential emission order exactly. A
      // governed run fans descending instead, so an early stop yields a
      // sound frontier.
      std::vector<uint64_t> freq_counts;
      const std::vector<Rank> frequent =
          base.CountFrequentWeighted(root, &freq_counts);
      if (!frequent.empty() &&
          !base.TrySingleGroupWeighted(root, frequent, freq_counts,
                                       &prefix)) {
        // Lane-local contexts reuse the counting scratch across subtrees.
        const std::shared_ptr<ThreadPool> pool = ThreadPool::Global();
        std::vector<std::unique_ptr<SliceMiningContext>> lanes(
            pool->threads());
        const auto mine_subtree = [&](fpm::MineShard* shard, size_t lane,
                                      size_t i) -> bool {
          auto& lane_base = lanes[lane];
          if (!lane_base) {
            lane_base = std::make_unique<SliceMiningContext>(
                flist, min_support, nullptr, nullptr);
            lane_base->BindRunContext(run_ctx_);
          }
          lane_base->SetSinks(&shard->patterns, &shard->stats);
          std::vector<Rank> sub_prefix;
          sub_prefix.push_back(frequent[i]);
          lane_base->EmitPattern(sub_prefix, freq_counts[i]);
          const std::vector<WeightedSlice> projected =
              ProjectWeightedSlices(root, frequent[i]);
          ++shard->stats.projections_built;
          if (projected.empty()) return true;
          const ScopedBytes charge(
              run_ctx_,
              run_ctx_ != nullptr ? ApproxWeightedSliceBytes(projected) : 0);
          RecycleFpContext ctx(lane_base.get());
          return ctx.Mine(projected, &sub_prefix);
        };

        if (run_ctx_ == nullptr) {
          fpm::MineFirstLevelParallel(
              pool, frequent.size(),
              [&](fpm::MineShard* shard, size_t lane, size_t i) {
                mine_subtree(shard, lane, i);
              },
              &out, &stats_);
        } else {
          // Root slices stay live for the whole fan-out.
          const ScopedBytes root_charge(run_ctx_,
                                        ApproxWeightedSliceBytes(root));
          fpm::MineFirstLevelGoverned(pool, frequent.size(), mine_subtree,
                                      &out, &stats_, run_ctx_, freq_counts,
                                      /*mark_frontier=*/true);
        }
      }
    }
  }

  stats_.patterns_emitted = out.size();
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  fpm::RecordMiningStats(stats_);
  return out;
}

}  // namespace gogreen::core
