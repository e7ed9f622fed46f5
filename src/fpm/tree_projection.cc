#include "fpm/tree_projection.h"

#include <algorithm>
#include <unordered_map>

#include "check/check.h"
#include "fpm/flist.h"
#include "fpm/parallel_mine.h"
#include "util/logging.h"

namespace gogreen::fpm {

namespace {

// Above this extension count the node's pair matrix would be too large;
// fall back to project-and-recount for that node only (correctness is
// unaffected, only the grandchild pruning is lost).
constexpr size_t kMaxMatrixItems = 4096;

/// One distinct projected transaction in a node-local item space, with the
/// number of identical original transactions it stands for. Collapsing
/// duplicates is the transaction-bucketing optimization of the original
/// algorithm; on dense data it shrinks node workloads by orders of magnitude.
struct WeightedRow {
  std::vector<uint32_t> items;  // Sorted local indices into the extension set.
  uint64_t weight = 0;
};

using LocalRows = std::vector<WeightedRow>;

/// Merges identical rows, summing weights.
LocalRows Dedupe(std::vector<std::pair<std::vector<uint32_t>, uint64_t>> raw) {
  std::unordered_map<std::vector<uint32_t>, uint64_t, RankRowHash> merged;
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
  /// Emits prefix + ext[i] for every i, fills the node's pair matrix once
  /// (or, above the matrix limit, leaves each child to recount), then mines
  /// child i < ext.size() - 1 for every i. The root (empty `prefix`) hands
  /// its children to MineFirstLevel; each child only reads the shared
  /// matrix and rows. Returns false iff a governed stop abandoned part of
  /// the subtree.
  bool Process(std::vector<Rank>* prefix, const std::vector<Rank>& ext,
               const std::vector<uint64_t>& c1, const LocalRows& rows) {
    for (size_t i = 0; i < ext.size(); ++i) {
      prefix->push_back(ext[i]);
      EmitPattern(*prefix, c1[i]);
      prefix->pop_back();
    }
    if (ext.size() < 2) return true;

    const bool use_matrix = ext.size() <= kMaxMatrixItems;
    PairMatrix matrix(use_matrix ? ext.size() : 0);
    if (use_matrix) FillMatrix(&matrix, rows);
    const auto mine_child = [&](TpContext* ctx, std::vector<Rank>* at,
                                size_t i) {
      return use_matrix ? ctx->MineMatrixChild(at, ext, matrix, rows, i)
                        : ctx->MineRecountChild(at, ext, rows, i);
    };
    if (!prefix->empty()) {
      bool completed = true;
      for (size_t i = 0; i + 1 < ext.size(); ++i) {
        if (run_ctx_ != nullptr && run_ctx_->ShouldStop()) {
          completed = false;
          break;
        }
        if (!mine_child(this, prefix, i)) completed = false;
      }
      return completed;
    }

    // Root rows and matrix stay live for the whole fan-out. Child i's
    // subtree holds the patterns whose rarest item is ext[i], supported at
    // most c1[i] (F-list ascending, as a governed frontier needs).
    const ScopedBytes root_charge(
        run_ctx_, run_ctx_ != nullptr ? RowsBytes(rows) + matrix.Bytes() : 0);
    const std::vector<uint64_t> level_supports(c1.begin(), c1.end() - 1);
    return MineFirstLevel(
        ThreadPool::Global(), ext.size() - 1,
        [&](MineShard* shard, size_t /*lane*/, size_t i) -> bool {
          TpContext ctx(flist_, min_support_, &shard->patterns,
                        &shard->stats);
          ctx.BindRunContext(run_ctx_);
          std::vector<Rank> sub_prefix;
          return mine_child(&ctx, &sub_prefix, i);
        },
        out_, stats_, run_ctx_, level_supports, /*mark_frontier=*/true);
  }

 private:
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

  /// One recount-mode child, for nodes whose extension set is too large
  /// for a matrix: projects rows containing ext[i], recounts the extension
  /// supports there, and processes the child node.
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

PatternSet TreeProjectionMiner::MineImpl(const TransactionDb& db,
                                         uint64_t min_support) {
  PatternSet out;
  const FList flist = FList::Build(db, min_support);
  GOGREEN_VALIDATE_OR_DIE(check::ValidateFList(flist, min_support));
  if (flist.empty()) return out;

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
      raw.emplace_back(std::vector<uint32_t>(encoded.begin(), encoded.end()),
                       1);
    }
  }
  const LocalRows rows = Dedupe(std::move(raw));

  TpContext ctx(flist, min_support, &out, &stats_);
  ctx.BindRunContext(run_ctx_);
  std::vector<Rank> prefix;
  ctx.Process(&prefix, ext, c1, rows);
  return out;
}

}  // namespace gogreen::fpm
