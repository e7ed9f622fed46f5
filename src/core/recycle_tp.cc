#include "core/recycle_tp.h"

#include <algorithm>
#include <memory>

#include "core/slice_db.h"
#include "fpm/parallel_mine.h"
#include "fpm/tree_projection.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gogreen::core {

namespace {

using fpm::PairMatrix;
using fpm::Rank;

class RecycleTpContext {
 public:
  explicit RecycleTpContext(SliceMiningContext* base)
      : base_(base), local_of_(base->flist().size(), UINT32_MAX) {}

  /// Processes one node: `ext` (ascending ranks) are the known-frequent
  /// extensions with supports `c1`; `slices` contain only ext items. Rows
  /// inside the slices are weighted (the bucketing the Tree Projection
  /// baseline also uses). The root (empty `prefix`) hands its children to
  /// MineFirstLevel; each child only reads the shared matrix and slices.
  /// Returns false iff a governed stop abandoned part of the subtree.
  bool Process(const std::vector<WeightedSlice>& slices,
               const std::vector<Rank>& ext, const std::vector<uint64_t>& c1,
               std::vector<Rank>* prefix) {
    if (base_->TrySingleGroupWeighted(slices, ext, c1, prefix)) return true;

    for (size_t i = 0; i < ext.size(); ++i) {
      prefix->push_back(ext[i]);
      base_->EmitPattern(*prefix, c1[i]);
      prefix->pop_back();
    }
    if (ext.size() < 2) return true;

    PairMatrix matrix(ext.size());
    FillMatrix(slices, ext, &matrix);
    if (!prefix->empty()) {
      bool completed = true;
      for (size_t i = 0; i + 1 < ext.size(); ++i) {
        if (base_->ShouldStop()) {
          completed = false;
          break;
        }
        if (!MineChild(slices, ext, matrix, i, prefix)) completed = false;
      }
      return completed;
    }

    // Lane-local contexts reuse the rank-indexed scratch across subtrees.
    struct Lane {
      std::unique_ptr<SliceMiningContext> base;
      std::unique_ptr<RecycleTpContext> ctx;
    };
    RunContext* run_ctx = base_->run_context();
    const std::shared_ptr<ThreadPool> pool = ThreadPool::Global();
    std::vector<Lane> lanes(pool->threads());
    const auto mine_subtree = [&](fpm::MineShard* shard, size_t lane,
                                  size_t i) -> bool {
      Lane& slot = lanes[lane];
      if (!slot.ctx) {
        slot.base = std::make_unique<SliceMiningContext>(
            base_->flist(), base_->min_support(), nullptr, nullptr);
        slot.base->BindRunContext(run_ctx);
        slot.ctx = std::make_unique<RecycleTpContext>(slot.base.get());
      }
      slot.base->SetSinks(&shard->patterns, &shard->stats);
      std::vector<Rank> sub_prefix;
      return slot.ctx->MineChild(slices, ext, matrix, i, &sub_prefix);
    };

    // Child i's subtree holds the patterns whose rarest item is ext[i],
    // supported at most c1[i]; root slices and matrix stay live for the
    // whole fan-out.
    const std::vector<uint64_t> level_supports(c1.begin(), c1.end() - 1);
    const ScopedBytes root_charge(
        run_ctx, run_ctx != nullptr
                     ? ApproxWeightedSliceBytes(slices) + matrix.Bytes()
                     : 0);
    return fpm::MineFirstLevel(pool, ext.size() - 1, mine_subtree,
                               base_->out(), base_->stats(), run_ctx,
                               level_supports, /*mark_frontier=*/true);
  }

 private:
  /// One scan fills all pair supports. Pattern-internal pairs are counted
  /// once per slice with the slice weight (the group-counter saving);
  /// pairs touching outlying rows are counted once per distinct row with
  /// the row's multiplicity.
  void FillMatrix(const std::vector<WeightedSlice>& slices,
                  const std::vector<Rank>& ext, PairMatrix* matrix) {
    // Local index mapping for the matrix.
    for (size_t i = 0; i < ext.size(); ++i) {
      local_of_[ext[i]] = static_cast<uint32_t>(i);
    }

    std::vector<uint32_t> pat_local;
    std::vector<uint32_t> out_local;
    for (const WeightedSlice& s : slices) {
      pat_local.clear();
      for (Rank r : s.pattern) pat_local.push_back(local_of_[r]);
      base_->stats()->items_scanned += pat_local.size();
      const uint64_t weight = s.count();
      for (size_t a = 0; a < pat_local.size(); ++a) {
        for (size_t b = a + 1; b < pat_local.size(); ++b) {
          matrix->Add(pat_local[a], pat_local[b], weight);
        }
      }
      for (const auto& [row, w] : s.outs) {
        out_local.clear();
        for (Rank r : row) out_local.push_back(local_of_[r]);
        base_->stats()->items_scanned += out_local.size();
        for (size_t a = 0; a < out_local.size(); ++a) {
          for (size_t b = a + 1; b < out_local.size(); ++b) {
            matrix->Add(out_local[a], out_local[b], w);
          }
        }
        // Pattern and outlying ranks interleave; order each pair's locals.
        for (uint32_t p : pat_local) {
          for (uint32_t o : out_local) {
            matrix->Add(std::min(p, o), std::max(p, o), w);
          }
        }
      }
    }
    for (Rank r : ext) local_of_[r] = UINT32_MAX;
  }

  /// Builds and processes the child node for prefix + ext[i] from the
  /// parent's already-filled pair matrix. Reads `slices` and `matrix`
  /// without mutating them, so distinct children may run concurrently on
  /// distinct contexts.
  bool MineChild(const std::vector<WeightedSlice>& slices,
                 const std::vector<Rank>& ext, const PairMatrix& matrix,
                 size_t i, std::vector<Rank>* prefix) {
    std::vector<Rank> child_ext;
    std::vector<uint64_t> child_c1;
    for (size_t j = i + 1; j < ext.size(); ++j) {
      if (matrix.Get(i, j) >= base_->min_support()) {
        child_ext.push_back(ext[j]);
        child_c1.push_back(matrix.Get(i, j));
      }
    }
    if (child_ext.empty()) return true;

    const std::vector<WeightedSlice> child =
        ProjectAndFilter(slices, ext[i], child_ext);
    ++base_->stats()->projections_built;
    // The projected child slices are this step's dominant scratch; charge
    // them while the recursion below keeps them alive.
    const ScopedBytes charge(
        base_->run_context(),
        base_->run_context() != nullptr ? ApproxWeightedSliceBytes(child) : 0);
    prefix->push_back(ext[i]);
    const bool completed = Process(child, child_ext, child_c1, prefix);
    prefix->pop_back();
    return completed;
  }

  /// Projects onto `f` and keeps only items in `keep` (ascending ranks).
  std::vector<WeightedSlice> ProjectAndFilter(
      const std::vector<WeightedSlice>& slices, Rank f,
      const std::vector<Rank>& keep) {
    std::vector<WeightedSlice> base = ProjectWeightedSlices(slices, f);
    // Filter the survivors to the pruned extension set.
    std::vector<WeightedSlice> out;
    out.reserve(base.size());
    for (WeightedSlice& s : base) {
      WeightedSlice next;
      next.empty_count = s.empty_count;
      for (Rank r : s.pattern) {
        if (std::binary_search(keep.begin(), keep.end(), r)) {
          next.pattern.push_back(r);
        }
      }
      std::vector<Rank> row_buf;
      for (auto& [row, w] : s.outs) {
        row_buf.clear();
        for (Rank r : row) {
          if (std::binary_search(keep.begin(), keep.end(), r)) {
            row_buf.push_back(r);
          }
        }
        if (row_buf.empty()) {
          next.empty_count += w;
        } else {
          next.outs.emplace_back(row_buf, w);
        }
      }
      if (next.pattern.empty()) next.empty_count = 0;
      if (next.pattern.empty() && next.outs.empty()) continue;
      DedupeWeightedOuts(&next.outs);
      out.push_back(std::move(next));
    }
    return out;
  }

  SliceMiningContext* base_;
  std::vector<uint32_t> local_of_;  // Scratch, UINT32_MAX between calls.
};

}  // namespace

fpm::PatternSet RecycleTpMiner::MineImpl(const SliceDb& sdb,
                                         const fpm::FList& flist,
                                         uint64_t min_support) {
  fpm::PatternSet out;
  SliceMiningContext base(flist, min_support, &out, &stats_);
  base.BindRunContext(run_ctx_);
  // Root node: extensions are all frequent items.
  std::vector<Rank> ext(flist.size());
  std::vector<uint64_t> c1(flist.size());
  for (Rank r = 0; r < flist.size(); ++r) {
    ext[r] = r;
    c1[r] = flist.support(r);
  }
  std::vector<Rank> prefix;
  RecycleTpContext(&base).Process(BuildWeightedSlices(sdb), ext, c1, &prefix);
  return out;
}

}  // namespace gogreen::core
