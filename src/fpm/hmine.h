// H-Mine (Pei, Han, Lu, Nishio, Tang, Yang — ICDM'01): frequent-pattern
// mining over an in-memory hyper-structure. Transactions are re-encoded onto
// the F-list; every projected database is a set of (transaction, offset)
// references into the original arrays — no data is copied during projection,
// matching H-Mine's header-table-with-hyperlinks design.

#ifndef GOGREEN_FPM_HMINE_H_
#define GOGREEN_FPM_HMINE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "check/check.h"
#include "fpm/flist.h"
#include "fpm/fpgrowth.h"
#include "fpm/miner.h"
#include "util/run_context.h"

namespace gogreen::fpm {

class HMineMiner : public FrequentPatternMiner {
 public:
  std::string name() const override { return "h-mine"; }

 protected:
  PatternSet MineImpl(const TransactionDb& db, uint64_t min_support) override;
};

/// A suffix of one ranked transaction: the projection of that transaction
/// into the current prefix's projected database.
struct Suffix {
  Tid tid;
  uint32_t pos;  // First item of the suffix within the ranked transaction.
};

/// The H-Mine recursion over the rows of a RowSource (concept:
/// Transaction(Tid) -> span of ranks, ascending). Recycle-HM
/// (core/recycle_hmine) runs it on every projection that has no group
/// structure left, so an ungrouped compressed database is mined exactly as
/// H-Mine mines the database itself.
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

  /// Heap footprint of one level's suffix buckets (bucket i holds one
  /// Suffix per supporting row, i.e. freq_counts[i] entries), for budget
  /// accounting.
  static size_t BucketBytes(const std::vector<uint64_t>& freq_counts) {
    uint64_t total = 0;
    for (uint64_t c : freq_counts) total += c;
    return static_cast<size_t>(total) * sizeof(Suffix);
  }

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
  /// prefixes are counted once; any other expands one H-struct level, emits
  /// each frequent extension and recurses into its bucket depth-first in
  /// ascending extension-rank order, releasing buckets as it goes. Returns
  /// false iff a governed stop abandoned part of the subtree (always true
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
    // The suffix buckets are this level's dominant scratch; charge them for
    // the time the recursion below keeps them alive.
    const ScopedBytes charge(
        run_ctx_, run_ctx_ != nullptr ? BucketBytes(freq_counts) : 0);

    bool completed = true;
    for (size_t i = 0; i < frequent.size(); ++i) {
      if (run_ctx_ != nullptr && run_ctx_->ShouldStop()) {
        completed = false;
        break;
      }
      prefix->push_back(frequent[i]);
      EmitPattern(*prefix, freq_counts[i]);
      if (!Mine(buckets[i], prefix)) completed = false;
      prefix->pop_back();
      buckets[i].clear();
      buckets[i].shrink_to_fit();  // Release level memory eagerly.
    }
    return completed;
  }

  void EmitPattern(const std::vector<Rank>& ranks, uint64_t support) {
    std::vector<ItemId> items = flist_.DecodeRanks(ranks);
    std::sort(items.begin(), items.end());
    out_->Add(std::move(items), support);
  }

 private:
  /// Row floor of the dense switch (IsDense). Below it a projection is
  /// cheap to thread whatever its fill, and building a tree costs more
  /// than it saves: without the floor, weather-sub at 1% mined about 35%
  /// slower (DESIGN.md §7).
  static constexpr size_t kDenseMinRows = 512;

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

/// Mines a projected database given as rank-encoded rows (each ascending in
/// F-list rank). Every emitted pattern is prefixed with `prefix_ranks`.
/// This is the H-Mine core exposed for the memory-limited driver, which
/// mines disk partitions one at a time (Section 5.3). `run_ctx` (optional)
/// governs the run; returns false iff a governed stop abandoned work — the
/// caller owns the frontier bookkeeping when `prefix_ranks` is non-empty.
bool MineRankedRowsHM(const std::vector<std::vector<Rank>>& rows,
                      const FList& flist, uint64_t min_support,
                      const std::vector<Rank>& prefix_ranks, PatternSet* out,
                      MiningStats* stats, RunContext* run_ctx = nullptr);

/// Expands the root level of the H-struct over `ranked` — header table plus
/// fully materialized hyperlink queues — as a neutral view for
/// check::ValidateHStruct and for tests. Debug tooling: costs one full
/// counting + threading pass over the ranked database.
check::HStructView DebugRootHStruct(const RankedDb& ranked, const FList& flist,
                                    uint64_t min_support);

}  // namespace gogreen::fpm

#endif  // GOGREEN_FPM_HMINE_H_
