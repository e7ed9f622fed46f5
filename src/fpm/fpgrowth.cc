#include "fpm/fpgrowth.h"

#include <algorithm>
#include <unordered_map>

#include "fpm/flist.h"
#include "fpm/parallel_mine.h"
#include "util/arena.h"
#include "util/logging.h"

namespace gogreen::fpm {

namespace {

/// Longest single path enumerated by subset mask (2^k - 1 patterns).
constexpr size_t kMaxSinglePath = 40;
/// The mask enumeration polls the governor once per this mask + 1 subsets.
constexpr uint64_t kSinglePathPollMask = 1023;

/// One FP-tree node. Children form a singly linked sibling list; `next`
/// threads all nodes of the same rank for the header table.
struct FpNode {
  Rank rank;
  uint64_t count;
  FpNode* parent;
  FpNode* first_child;
  FpNode* next_sibling;
  FpNode* next;  // Header chain.
};

/// An FP-tree over a *local* rank space 0..num_ranks-1 (each conditional tree
/// compacts its alphabet so header arrays stay small). Local rank order is
/// consistent with global F-list order, and paths store ranks in *descending*
/// order from the root (most frequent item first), so the conditional pattern
/// base of a rank consists of strictly larger local ranks.
class FpTree {
 public:
  explicit FpTree(size_t num_ranks)
      : header_heads_(num_ranks, nullptr), header_counts_(num_ranks, 0) {
    root_ = arena_.New<FpNode>(
        FpNode{kNoRank, 0, nullptr, nullptr, nullptr, nullptr});
  }

  /// Inserts a path of local ranks sorted descending, adding `weight` to
  /// every node along it.
  void InsertPath(std::span<const Rank> desc_ranks, uint64_t weight) {
    FpNode* node = root_;
    for (Rank r : desc_ranks) {
      FpNode* child = FindChild(node, r);
      if (child == nullptr) {
        child = arena_.New<FpNode>(
            FpNode{r, 0, node, nullptr, node->first_child, header_heads_[r]});
        node->first_child = child;
        header_heads_[r] = child;
      }
      child->count += weight;
      header_counts_[r] += weight;
      node = child;
    }
  }

  uint64_t HeaderCount(Rank r) const { return header_counts_[r]; }
  FpNode* HeaderHead(Rank r) const { return header_heads_[r]; }
  size_t num_ranks() const { return header_heads_.size(); }

  /// If the tree consists of a single downward path, returns its nodes
  /// root-side first; otherwise returns an empty vector.
  std::vector<const FpNode*> SinglePath() const {
    std::vector<const FpNode*> path;
    const FpNode* node = root_;
    while (node->first_child != nullptr) {
      if (node->first_child->next_sibling != nullptr) return {};
      node = node->first_child;
      path.push_back(node);
    }
    return path;
  }

  bool empty() const { return root_->first_child == nullptr; }

  const FpNode* root() const { return root_; }

  size_t MemoryUsage() const { return arena_.allocated_bytes(); }

 private:
  static FpNode* FindChild(FpNode* node, Rank r) {
    for (FpNode* c = node->first_child; c != nullptr; c = c->next_sibling) {
      if (c->rank == r) return c;
    }
    return nullptr;
  }

  Arena arena_;
  FpNode* root_;
  std::vector<FpNode*> header_heads_;
  std::vector<uint64_t> header_counts_;
};

class FpGrowthContext {
 public:
  FpGrowthContext(const FList& flist, uint64_t min_support, PatternSet* out,
                  MiningStats* stats)
      : flist_(flist), min_support_(min_support), out_(out), stats_(stats) {}

  /// Attaches the run governor: Mine() then polls between header ranks and
  /// charges conditional trees against the byte budget. Null detaches.
  void BindRunContext(RunContext* ctx) { run_ctx_ = ctx; }

  /// Mines `tree` under `prefix`. `to_global[local]` maps the tree's local
  /// rank space back to global F-list ranks (increasing in local rank).
  /// Returns false iff a governed stop abandoned part of the subtree.
  bool Mine(const FpTree& tree, const std::vector<Rank>& to_global,
            std::vector<Rank>* prefix) {
    if (tree.empty()) return true;

    // A path too long to enumerate by mask takes the header loop below,
    // whose conditional trees are shorter paths.
    const std::vector<const FpNode*> path = tree.SinglePath();
    if (!path.empty() && path.size() < kMaxSinglePath) {
      return EmitSinglePathCombinations(path, to_global, prefix);
    }

    // Header processed in ascending local-rank order (lowest support first),
    // as in the original algorithm.
    bool completed = true;
    for (Rank r = 0; r < tree.num_ranks(); ++r) {
      if (run_ctx_ != nullptr && run_ctx_->ShouldStop()) {
        completed = false;
        break;
      }
      if (tree.HeaderCount(r) < min_support_) continue;
      if (!MineHeaderRank(tree, to_global, r, prefix)) completed = false;
    }
    return completed;
  }

  /// Processes one frequent header rank `r` of `tree`: emits prefix+r and
  /// mines its conditional FP-tree. Reads `tree` without mutating it, so
  /// distinct ranks of the same tree may be processed concurrently.
  /// Returns false iff a governed stop abandoned part of the subtree.
  bool MineHeaderRank(const FpTree& tree, const std::vector<Rank>& to_global,
                      Rank r, std::vector<Rank>* prefix) {
    prefix->push_back(to_global[r]);
    EmitPattern(*prefix, tree.HeaderCount(r));

    // Conditional pattern base of r: the prefix paths of every node in
    // r's chain, weighted by that node's count.
    std::vector<uint64_t> cond_counts(tree.num_ranks(), 0);
    for (const FpNode* n = tree.HeaderHead(r); n != nullptr; n = n->next) {
      for (const FpNode* p = n->parent; p->rank != kNoRank; p = p->parent) {
        cond_counts[p->rank] += n->count;
        ++stats_->items_scanned;
      }
    }

    // Compact the locally frequent items into a fresh local rank space.
    std::vector<Rank> remap(tree.num_ranks(), kNoRank);
    std::vector<Rank> cond_to_global;
    for (Rank r2 = 0; r2 < tree.num_ranks(); ++r2) {
      if (cond_counts[r2] >= min_support_) {
        remap[r2] = static_cast<Rank>(cond_to_global.size());
        cond_to_global.push_back(to_global[r2]);
      }
    }

    bool completed = true;
    if (!cond_to_global.empty()) {
      FpTree cond_tree(cond_to_global.size());
      std::vector<Rank> desc;
      for (const FpNode* n = tree.HeaderHead(r); n != nullptr; n = n->next) {
        desc.clear();
        for (const FpNode* p = n->parent; p->rank != kNoRank;
             p = p->parent) {
          if (remap[p->rank] != kNoRank) desc.push_back(remap[p->rank]);
        }
        // Walking up yields ascending-from-leaf order; the insert wants
        // descending-from-root, which is the reverse.
        std::reverse(desc.begin(), desc.end());
        cond_tree.InsertPath(desc, n->count);
      }
      ++stats_->projections_built;
      // The conditional tree is this step's dominant scratch; charge its
      // arena while the recursion below keeps it alive.
      const ScopedBytes charge(
          run_ctx_, run_ctx_ != nullptr ? cond_tree.MemoryUsage() : 0);
      completed = Mine(cond_tree, cond_to_global, prefix);
    }
    prefix->pop_back();
    return completed;
  }

 private:
  /// A single-path tree of k nodes encodes 2^k - 1 patterns: any non-empty
  /// subset of the path, supported by the count of its deepest node.
  /// Polls the governor every kSinglePathPollMask + 1 subsets, since 2^k
  /// outgrows any deadline long before k reaches kMaxSinglePath. Returns
  /// false iff a governed stop abandoned the enumeration.
  bool EmitSinglePathCombinations(const std::vector<const FpNode*>& path,
                                  const std::vector<Rank>& to_global,
                                  std::vector<Rank>* prefix) {
    const size_t k = path.size();
    GOGREEN_DCHECK_LT(k, kMaxSinglePath);
    for (uint64_t mask = 1; mask < (uint64_t{1} << k); ++mask) {
      if ((mask & kSinglePathPollMask) == 0 && run_ctx_ != nullptr &&
          run_ctx_->ShouldStop()) {
        return false;
      }
      uint64_t support = 0;
      size_t added = 0;
      for (size_t i = 0; i < k; ++i) {
        if ((mask >> i) & 1) {
          prefix->push_back(to_global[path[i]->rank]);
          support = path[i]->count;  // Deepest selected node's count.
          ++added;
        }
      }
      if (support >= min_support_) EmitPattern(*prefix, support);
      for (size_t i = 0; i < added; ++i) prefix->pop_back();
    }
    return true;
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

/// Inserts every encoded transaction of `db` into `tree` (rank-descending
/// paths). Shared by Mine() and the debug view builder.
void BuildRootFpTree(const TransactionDb& db, const FList& flist,
                     FpTree* tree) {
  std::vector<Rank> desc;
  for (Tid t = 0; t < db.NumTransactions(); ++t) {
    desc.clear();
    flist.AppendEncoded(db.Transaction(t), &desc);
    // Encoded rows are rank-ascending; tree paths want rank-descending
    // (most frequent first).
    std::reverse(desc.begin(), desc.end());
    tree->InsertPath(desc, 1);
  }
}

/// Repackages a live FpTree into the pointer-free view the validators
/// consume: preorder node vector (parent always precedes child) plus header
/// chains as node-id lists. Chain entries that do not correspond to a tree
/// node map to an out-of-range id the validator reports.
check::FpTreeView ToFpTreeView(const FpTree& tree) {
  check::FpTreeView view;
  std::unordered_map<const FpNode*, uint32_t> index;
  const FpNode* root = tree.root();
  view.nodes.push_back({root->rank, root->count, -1});
  index.emplace(root, 0);
  std::vector<const FpNode*> stack;
  for (const FpNode* c = root->first_child; c != nullptr;
       c = c->next_sibling) {
    stack.push_back(c);
  }
  while (!stack.empty()) {
    const FpNode* n = stack.back();
    stack.pop_back();
    const auto id = static_cast<uint32_t>(view.nodes.size());
    index.emplace(n, id);
    view.nodes.push_back(
        {n->rank, n->count, static_cast<int64_t>(index.at(n->parent))});
    for (const FpNode* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  view.header.resize(tree.num_ranks());
  view.header_counts.resize(tree.num_ranks());
  for (Rank r = 0; r < tree.num_ranks(); ++r) {
    view.header_counts[r] = tree.HeaderCount(r);
    for (const FpNode* n = tree.HeaderHead(r); n != nullptr; n = n->next) {
      const auto it = index.find(n);
      view.header[r].push_back(
          it != index.end() ? it->second
                            : static_cast<uint32_t>(view.nodes.size()));
    }
  }
  return view;
}

}  // namespace

check::FpTreeView DebugFpTreeView(const TransactionDb& db,
                                  uint64_t min_support) {
  const FList flist = FList::Build(db, min_support);
  if (flist.empty()) return {};
  FpTree tree(flist.size());
  BuildRootFpTree(db, flist, &tree);
  return ToFpTreeView(tree);
}

bool MineRankRowsFP(const std::vector<std::span<const Rank>>& rows,
                    const std::vector<Rank>& frequent, const FList& flist,
                    uint64_t min_support, std::vector<Rank>* prefix,
                    PatternSet* out, MiningStats* stats,
                    RunContext* run_ctx) {
  if (frequent.empty()) return true;
  // `frequent` is the local rank space: ascending, so local order stays
  // consistent with F-list order.
  std::vector<Rank> to_local(flist.size(), kNoRank);
  for (size_t i = 0; i < frequent.size(); ++i) {
    to_local[frequent[i]] = static_cast<Rank>(i);
  }

  FpTree tree(frequent.size());
  std::vector<Rank> desc;
  for (const std::span<const Rank> row : rows) {
    // Rows are rank-ascending; tree paths want rank-descending.
    desc.clear();
    for (auto it = row.rbegin(); it != row.rend(); ++it) {
      if (to_local[*it] != kNoRank) desc.push_back(to_local[*it]);
    }
    tree.InsertPath(desc, 1);
  }
  ++stats->projections_built;
  if (check::ValidationEnabled()) {
    GOGREEN_VALIDATE_OR_DIE(
        check::ValidateFpTree(ToFpTreeView(tree), min_support));
  }

  const ScopedBytes charge(run_ctx,
                           run_ctx != nullptr ? tree.MemoryUsage() : 0);
  FpGrowthContext ctx(flist, min_support, out, stats);
  ctx.BindRunContext(run_ctx);
  return ctx.Mine(tree, frequent, prefix);
}

PatternSet FpGrowthMiner::MineImpl(const TransactionDb& db,
                                   uint64_t min_support) {
  PatternSet out;

  const FList flist = FList::Build(db, min_support);
  if (!flist.empty()) {
    FpTree tree(flist.size());
    BuildRootFpTree(db, flist, &tree);

    if (check::ValidationEnabled()) {
      GOGREEN_VALIDATE_OR_DIE(check::ValidateFList(flist, min_support));
      GOGREEN_VALIDATE_OR_DIE(
          check::ValidateFpTree(ToFpTreeView(tree), min_support));
    }

    // Initial tree: local rank space == global rank space.
    std::vector<Rank> identity(flist.size());
    for (Rank r = 0; r < flist.size(); ++r) identity[r] = r;

    if (!tree.empty() && tree.SinglePath().empty()) {
      // Fan the header ranks of the root tree out: each rank's conditional
      // mining only reads the shared tree. Root header counts equal the
      // F-list supports (every root rank is frequent), giving the ascending
      // level supports a governed frontier needs.
      std::vector<uint64_t> level_supports(flist.size());
      for (Rank r = 0; r < flist.size(); ++r) {
        level_supports[r] = tree.HeaderCount(r);
      }
      const ScopedBytes root_charge(
          run_ctx_, run_ctx_ != nullptr ? tree.MemoryUsage() : 0);
      MineFirstLevel(
          ThreadPool::Global(), flist.size(),
          [&](MineShard* shard, size_t /*lane*/, size_t i) -> bool {
            const Rank r = static_cast<Rank>(i);
            FpGrowthContext ctx(flist, min_support, &shard->patterns,
                                &shard->stats);
            ctx.BindRunContext(run_ctx_);
            std::vector<Rank> prefix;
            return ctx.MineHeaderRank(tree, identity, r, &prefix);
          },
          &out, &stats_, run_ctx_, level_supports, /*mark_frontier=*/true);
    } else {
      // A single-path root has no per-rank decomposition: enumerate it
      // (or, past kMaxSinglePath, walk its header) in place.
      std::vector<Rank> prefix;
      FpGrowthContext ctx(flist, min_support, &out, &stats_);
      ctx.BindRunContext(run_ctx_);
      if (!ctx.Mine(tree, identity, &prefix) && run_ctx_ != nullptr) {
        // A governed stop inside a single-path root: no support level is
        // known complete, so the frontier sits above every item.
        uint64_t top = 0;
        for (Rank r = 0; r < flist.size(); ++r) {
          top = std::max(top, tree.HeaderCount(r));
        }
        run_ctx_->MarkIncomplete(top + 1);
      }
    }
  }
  return out;
}

}  // namespace gogreen::fpm
