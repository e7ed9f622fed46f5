#include "fpm/tree_projection.h"

#include <algorithm>
#include <unordered_map>

#include "check/check.h"
#include "fpm/flist.h"
#include "fpm/parallel_mine.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gogreen::fpm {

namespace {

// Above this extension count the node's pair matrix would be too large;
// fall back to project-and-recount for that node only (correctness is
// unaffected, only the grandchild pruning is lost).
constexpr size_t kMaxMatrixItems = 4096;

/// Upper-triangular pair-count matrix over n local items.
class PairMatrix {
 public:
  explicit PairMatrix(size_t n) : n_(n), counts_(n * (n - 1) / 2, 0) {}

  void Add(size_t i, size_t j, uint64_t w) { counts_[Index(i, j)] += w; }
  uint64_t Get(size_t i, size_t j) const { return counts_[Index(i, j)]; }

 private:
  size_t Index(size_t i, size_t j) const {
    GOGREEN_DCHECK(i < j && j < n_);
    // Row-major upper triangle: row i starts after sum of previous rows.
    return i * (2 * n_ - i - 1) / 2 + (j - i - 1);
  }

  size_t n_;
  std::vector<uint64_t> counts_;
};

/// One distinct projected transaction in a node-local item space, with the
/// number of identical original transactions it stands for. Collapsing
/// duplicates is the transaction-bucketing optimization of the original
/// algorithm; on dense data it shrinks node workloads by orders of magnitude.
struct WeightedRow {
  std::vector<uint32_t> items;  // Sorted local indices into the extension set.
  uint64_t weight = 0;
};

using LocalRows = std::vector<WeightedRow>;

struct RowHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (uint32_t x : v) {
      h ^= x;
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

/// Merges identical rows, summing weights.
LocalRows Dedupe(std::vector<std::pair<std::vector<uint32_t>, uint64_t>> raw) {
  std::unordered_map<std::vector<uint32_t>, uint64_t, RowHash> merged;
  merged.reserve(raw.size());
  for (auto& [items, weight] : raw) {
    merged[std::move(items)] += weight;
  }
  LocalRows rows;
  rows.reserve(merged.size());
  for (auto& [items, weight] : merged) {
    rows.push_back({items, weight});
  }
  // Canonical order: hash-map iteration order is an implementation detail,
  // and downstream scans must not depend on it.
  std::sort(rows.begin(), rows.end(),
            [](const WeightedRow& a, const WeightedRow& b) {
              return a.items < b.items;
            });
  return rows;
}

class TpContext {
 public:
  TpContext(const FList& flist, uint64_t min_support, PatternSet* out,
            MiningStats* stats)
      : flist_(flist), min_support_(min_support), out_(out), stats_(stats) {}

  /// Attaches the run governor: Process() then polls between children and
  /// charges projected child rows against the byte budget. Null detaches.
  void BindRunContext(RunContext* ctx) { run_ctx_ = ctx; }

  /// Processes one lexicographic-tree node.
  ///  - `ext`: candidate extension items (global ranks, F-list ascending);
  ///    all are known frequent together with the prefix.
  ///  - `c1[i]`: support of prefix + ext[i].
  ///  - `rows`: weighted distinct transactions containing the prefix,
  ///    reduced to ext items.
  /// Returns false iff a governed stop abandoned part of the subtree.
  bool Process(std::vector<Rank>* prefix, const std::vector<Rank>& ext,
               const std::vector<uint64_t>& c1, const LocalRows& rows) {
    for (size_t i = 0; i < ext.size(); ++i) {
      prefix->push_back(ext[i]);
      EmitPattern(*prefix, c1[i]);
      prefix->pop_back();
    }
    if (ext.size() < 2) return true;

    if (ext.size() <= kMaxMatrixItems) {
      return ProcessWithMatrix(prefix, ext, rows);
    }
    return ProcessWithRecount(prefix, ext, rows);
  }

  /// Root driver for multi-lane runs: emits the singleton patterns, fills
  /// the root pair matrix once, then fans the first-level children out to
  /// the pool — each child task only reads the shared matrix and rows.
  /// Ascending-child shard merge reproduces the sequential emission order
  /// exactly. Requires 2 <= ext.size() <= kMaxMatrixItems.
  void ProcessRootParallel(const std::vector<Rank>& ext,
                           const std::vector<uint64_t>& c1,
                           const LocalRows& rows) {
    std::vector<Rank> prefix;
    for (size_t i = 0; i < ext.size(); ++i) {
      prefix.push_back(ext[i]);
      EmitPattern(prefix, c1[i]);
      prefix.pop_back();
    }

    PairMatrix matrix(ext.size());
    FillMatrix(&matrix, rows);

    MineFirstLevelParallel(
        ThreadPool::Global(), ext.size() - 1,
        [&](MineShard* shard, size_t /*lane*/, size_t i) {
          TpContext ctx(flist_, min_support_, &shard->patterns,
                        &shard->stats);
          std::vector<Rank> sub_prefix;
          ctx.MineMatrixChild(&sub_prefix, ext, matrix, rows, i);
        },
        out_, stats_);
  }

  /// Governed root driver: like ProcessRootParallel but fanning children
  /// descending through MineFirstLevelGoverned (works at any lane count),
  /// with a recount fallback when the extension set exceeds the matrix
  /// limit. `c1` is F-list ascending, as the frontier computation needs.
  void ProcessRootGoverned(const std::vector<Rank>& ext,
                           const std::vector<uint64_t>& c1,
                           const LocalRows& rows) {
    std::vector<Rank> prefix;
    for (size_t i = 0; i < ext.size(); ++i) {
      prefix.push_back(ext[i]);
      EmitPattern(prefix, c1[i]);
      prefix.pop_back();
    }
    if (ext.size() < 2) return;

    const bool use_matrix = ext.size() <= kMaxMatrixItems;
    PairMatrix matrix(use_matrix ? ext.size() : 2);
    if (use_matrix) FillMatrix(&matrix, rows);
    // Root rows and matrix stay live for the whole fan-out.
    const ScopedBytes root_charge(
        run_ctx_,
        RowsBytes(rows) +
            (use_matrix ? ext.size() * (ext.size() - 1) / 2 * sizeof(uint64_t)
                        : 0));

    // Children are i in [0, ext.size() - 1); child i's subtree holds the
    // patterns whose rarest item is ext[i], supported at most c1[i].
    const std::vector<uint64_t> level_supports(c1.begin(), c1.end() - 1);
    MineFirstLevelGoverned(
        ThreadPool::Global(), ext.size() - 1,
        [&](MineShard* shard, size_t /*lane*/, size_t i) -> bool {
          TpContext ctx(flist_, min_support_, &shard->patterns,
                        &shard->stats);
          ctx.BindRunContext(run_ctx_);
          std::vector<Rank> sub_prefix;
          return use_matrix
                     ? ctx.MineMatrixChild(&sub_prefix, ext, matrix, rows, i)
                     : ctx.MineRecountChild(&sub_prefix, ext, rows, i);
        },
        out_, stats_, run_ctx_, level_supports, /*mark_frontier=*/true);
  }

 private:
  /// The signature Tree Projection step: one scan fills the pair matrix,
  /// giving every child its extension supports without recounting.
  /// Returns false iff a governed stop abandoned part of the subtree.
  bool ProcessWithMatrix(std::vector<Rank>* prefix, const std::vector<Rank>& ext,
                         const LocalRows& rows) {
    PairMatrix matrix(ext.size());
    FillMatrix(&matrix, rows);
    bool completed = true;
    for (size_t i = 0; i + 1 < ext.size(); ++i) {
      if (run_ctx_ != nullptr && run_ctx_->ShouldStop()) {
        completed = false;
        break;
      }
      if (!MineMatrixChild(prefix, ext, matrix, rows, i)) completed = false;
    }
    return completed;
  }

  /// One scan of `rows` accumulating every in-row pair into `matrix`.
  void FillMatrix(PairMatrix* matrix, const LocalRows& rows) {
    for (const WeightedRow& row : rows) {
      stats_->items_scanned += row.items.size();
      for (size_t a = 0; a < row.items.size(); ++a) {
        for (size_t b = a + 1; b < row.items.size(); ++b) {
          matrix->Add(row.items[a], row.items[b], row.weight);
        }
      }
    }
  }

  /// Builds and processes the child node for prefix + ext[i] from the
  /// parent's already-filled pair matrix. Reads `matrix` and `rows` without
  /// mutating them, so distinct children may be processed concurrently.
  /// Returns false iff a governed stop abandoned part of the subtree.
  bool MineMatrixChild(std::vector<Rank>* prefix, const std::vector<Rank>& ext,
                       const PairMatrix& matrix, const LocalRows& rows,
                       size_t i) {
    // Child node for prefix + ext[i]; its extensions are the j > i with
    // frequent pairs.
    std::vector<uint32_t> remap(ext.size(), UINT32_MAX);
    std::vector<Rank> child_ext;
    std::vector<uint64_t> child_c1;
    for (size_t j = i + 1; j < ext.size(); ++j) {
      if (matrix.Get(i, j) >= min_support_) {
        remap[j] = static_cast<uint32_t>(child_ext.size());
        child_ext.push_back(ext[j]);
        child_c1.push_back(matrix.Get(i, j));
      }
    }
    if (child_ext.empty()) return true;

    std::vector<std::pair<std::vector<uint32_t>, uint64_t>> raw;
    for (const WeightedRow& row : rows) {
      // Row is sorted; locate i then keep remapped later items.
      auto it = std::lower_bound(row.items.begin(), row.items.end(),
                                 static_cast<uint32_t>(i));
      if (it == row.items.end() || *it != i) continue;
      std::vector<uint32_t> child_row;
      for (++it; it != row.items.end(); ++it) {
        if (remap[*it] != UINT32_MAX) child_row.push_back(remap[*it]);
      }
      if (!child_row.empty()) {
        raw.emplace_back(std::move(child_row), row.weight);
      }
    }
    ++stats_->projections_built;

    prefix->push_back(ext[i]);
    const LocalRows child_rows = Dedupe(std::move(raw));
    const ScopedBytes charge(
        run_ctx_, run_ctx_ != nullptr ? RowsBytes(child_rows) : 0);
    const bool completed = Process(prefix, child_ext, child_c1, child_rows);
    prefix->pop_back();
    return completed;
  }

  /// One recount-mode child: projects rows containing ext[i], recounts the
  /// extension supports there, and processes the child node. The per-child
  /// body of ProcessWithRecount, exposed so the governed root fan-out can
  /// run children independently above the matrix limit.
  bool MineRecountChild(std::vector<Rank>* prefix, const std::vector<Rank>& ext,
                        const LocalRows& rows, size_t i) {
    std::vector<uint64_t> raw_counts(ext.size() - i - 1, 0);
    LocalRows contained;
    for (const WeightedRow& row : rows) {
      auto it = std::lower_bound(row.items.begin(), row.items.end(),
                                 static_cast<uint32_t>(i));
      if (it == row.items.end() || *it != i) continue;
      std::vector<uint32_t> tail(it + 1, row.items.end());
      stats_->items_scanned += tail.size();
      for (uint32_t x : tail) raw_counts[x - i - 1] += row.weight;
      contained.push_back({std::move(tail), row.weight});
    }

    std::vector<uint32_t> remap(ext.size(), UINT32_MAX);
    std::vector<Rank> child_ext;
    std::vector<uint64_t> child_c1;
    for (size_t j = i + 1; j < ext.size(); ++j) {
      if (raw_counts[j - i - 1] >= min_support_) {
        remap[j] = static_cast<uint32_t>(child_ext.size());
        child_ext.push_back(ext[j]);
        child_c1.push_back(raw_counts[j - i - 1]);
      }
    }
    if (child_ext.empty()) return true;

    std::vector<std::pair<std::vector<uint32_t>, uint64_t>> raw;
    for (const WeightedRow& row : contained) {
      std::vector<uint32_t> child_row;
      for (uint32_t x : row.items) {
        if (remap[x] != UINT32_MAX) child_row.push_back(remap[x]);
      }
      if (!child_row.empty()) {
        raw.emplace_back(std::move(child_row), row.weight);
      }
    }
    ++stats_->projections_built;

    prefix->push_back(ext[i]);
    const LocalRows child_rows = Dedupe(std::move(raw));
    const ScopedBytes charge(
        run_ctx_, run_ctx_ != nullptr ? RowsBytes(child_rows) : 0);
    const bool completed = Process(prefix, child_ext, child_c1, child_rows);
    prefix->pop_back();
    return completed;
  }

  /// Fallback for nodes whose extension set is too large for a matrix:
  /// project per child and recount extension supports there.
  /// Returns false iff a governed stop abandoned part of the subtree.
  bool ProcessWithRecount(std::vector<Rank>* prefix,
                          const std::vector<Rank>& ext, const LocalRows& rows) {
    bool completed = true;
    for (size_t i = 0; i + 1 < ext.size(); ++i) {
      if (run_ctx_ != nullptr && run_ctx_->ShouldStop()) {
        completed = false;
        break;
      }
      if (!MineRecountChild(prefix, ext, rows, i)) completed = false;
    }
    return completed;
  }

  static size_t RowsBytes(const LocalRows& rows) {
    size_t bytes = rows.size() * sizeof(WeightedRow);
    for (const WeightedRow& row : rows) {
      bytes += row.items.size() * sizeof(uint32_t);
    }
    return bytes;
  }

  void EmitPattern(const std::vector<Rank>& ranks, uint64_t support) {
    std::vector<ItemId> items = flist_.DecodeRanks(ranks);
    std::sort(items.begin(), items.end());
    out_->Add(std::move(items), support);
  }

  const FList& flist_;
  const uint64_t min_support_;
  PatternSet* out_;
  MiningStats* stats_;
  RunContext* run_ctx_ = nullptr;
};

}  // namespace

Result<PatternSet> TreeProjectionMiner::MineImpl(const TransactionDb& db,
                                                 uint64_t min_support) {
  stats_.Reset();
  GOGREEN_TRACE_SPAN("mine.tree-projection");
  Timer timer;
  PatternSet out;

  const FList flist = FList::Build(db, min_support);
  GOGREEN_VALIDATE_OR_DIE(check::ValidateFList(flist, min_support));
  if (!flist.empty()) {
    // Root node: extensions are all frequent items; rows are the ranked
    // transactions themselves (local index == global rank), bucketed.
    std::vector<Rank> ext(flist.size());
    std::vector<uint64_t> c1(flist.size());
    for (Rank r = 0; r < flist.size(); ++r) {
      ext[r] = r;
      c1[r] = flist.support(r);
    }

    std::vector<std::pair<std::vector<uint32_t>, uint64_t>> raw;
    raw.reserve(db.NumTransactions());
    std::vector<Rank> encoded;
    for (Tid t = 0; t < db.NumTransactions(); ++t) {
      encoded.clear();
      flist.AppendEncoded(db.Transaction(t), &encoded);
      if (encoded.size() >= 2) {
        raw.emplace_back(
            std::vector<uint32_t>(encoded.begin(), encoded.end()), 1);
      }
    }
    const LocalRows rows = Dedupe(std::move(raw));

    TpContext ctx(flist, min_support, &out, &stats_);
    if (run_ctx_ != nullptr) {
      ctx.BindRunContext(run_ctx_);
      ctx.ProcessRootGoverned(ext, c1, rows);
    } else if (ParallelMiningEnabled() && ext.size() >= 2 &&
               ext.size() <= kMaxMatrixItems) {
      ctx.ProcessRootParallel(ext, c1, rows);
    } else {
      std::vector<Rank> prefix;
      ctx.Process(&prefix, ext, c1, rows);
    }
  }

  stats_.patterns_emitted = out.size();
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  RecordMiningStats(stats_);
  return out;
}

}  // namespace gogreen::fpm
