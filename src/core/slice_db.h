// SliceDb: the compressed database re-encoded onto an F-list for mining.
//
// Key invariant that makes compressed mining simple: once a group's pattern
// and each tuple's outlying items are sorted in F-list rank order, *every*
// projected database keeps only items ranked after the projection item —
// i.e. a suffix. A projected compressed database is therefore a set of
// *slices*: (pattern-suffix, member outlying-suffixes), and the paper's
// savings fall out naturally:
//   - support counting adds a pattern item's contribution once per slice
//     (weighted by the slice's tuple count) instead of once per tuple;
//   - projecting on a pattern item moves a whole slice in O(members) —
//     or O(1) in the pseudo-projection variant — instead of O(items).

#ifndef GOGREEN_CORE_SLICE_DB_H_
#define GOGREEN_CORE_SLICE_DB_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/compressed_db.h"
#include "fpm/flist.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "util/run_context.h"

namespace gogreen::core {

/// One group of the compressed database under a specific F-list: the group
/// pattern as ascending ranks, plus each member's (non-empty) outlying ranks.
/// Members whose outlying part encodes to nothing are only counted.
struct Slice {
  std::vector<fpm::Rank> pattern;
  std::vector<std::vector<fpm::Rank>> outs;  ///< Non-empty, each ascending.
  uint64_t empty_count = 0;  ///< Members with no frequent outlying items.

  uint64_t count() const { return outs.size() + empty_count; }
};

/// The ranked view of a whole compressed database.
struct SliceDb {
  std::vector<Slice> slices;

  /// Builds the view of `cdb` under `flist` (which is typically
  /// FList::FromCounts(cdb.CountItemSupports(...), xi_new)). Groups whose
  /// pattern and members all encode to nothing are dropped.
  static SliceDb Build(const CompressedDb& cdb, const fpm::FList& flist);

  /// Total encoded items across all slices (pattern stored once per slice).
  uint64_t StoredItems() const;
};

/// A slice whose outlying rows carry multiplicities: identical suffixes are
/// stored once. This is the flattened form of the path sharing an FP-tree
/// (or Tree Projection's transaction bucketing) provides, and it is what
/// makes the Recycle-FP / Recycle-TP adaptations competitive with their
/// heavily-sharing baselines.
struct WeightedSlice {
  std::vector<fpm::Rank> pattern;
  std::vector<std::pair<std::vector<fpm::Rank>, uint64_t>> outs;
  uint64_t empty_count = 0;

  uint64_t count() const {
    uint64_t n = empty_count;
    for (const auto& [row, w] : outs) n += w;
    return n;
  }
};

/// Shared machinery for the compressed-database miners: counting, the
/// single-group shortcut of Lemma 3.1, and pattern emission.
class SliceMiningContext {
 public:
  SliceMiningContext(const fpm::FList& flist, uint64_t min_support,
                     fpm::PatternSet* out, fpm::MiningStats* stats)
      : flist_(flist), min_support_(min_support), out_(out), stats_(stats) {}

  const fpm::FList& flist() const { return flist_; }
  uint64_t min_support() const { return min_support_; }
  fpm::PatternSet* out() const { return out_; }
  fpm::MiningStats* stats() { return stats_; }

  /// Redirects emission and counters, e.g. into a per-worker shard. The
  /// context keeps its scratch buffers, so a lane-local context can serve
  /// successive first-level subtrees by re-pointing the sinks.
  void SetSinks(fpm::PatternSet* out, fpm::MiningStats* stats) {
    out_ = out;
    stats_ = stats;
  }

  /// Attaches the run governor; miners sharing this context poll it between
  /// subtrees and charge their scratch against its budget. Null detaches.
  void BindRunContext(RunContext* ctx) { run_ctx_ = ctx; }
  RunContext* run_context() const { return run_ctx_; }

  /// True when a governed run must stop at the next pattern-set boundary.
  bool ShouldStop() const {
    return run_ctx_ != nullptr && run_ctx_->ShouldStop();
  }

  /// Counts candidate-extension supports across `slices`. Pattern items are
  /// counted once per slice with the slice's tuple count — the group-counter
  /// trick of Section 3.1. Returns locally frequent ranks ascending and
  /// fills `counts_out[i]` with the support of the i-th of them.
  std::vector<fpm::Rank> CountFrequent(const std::vector<Slice>& slices,
                                       std::vector<uint64_t>* counts_out);

  /// Weighted-slice counterpart of CountFrequent.
  std::vector<fpm::Rank> CountFrequentWeighted(
      const std::vector<WeightedSlice>& slices,
      std::vector<uint64_t>* counts_out);

  /// Lemma 3.1: if every occurrence of every frequent item lies in a single
  /// slice's pattern, the complete extension set is all combinations of the
  /// frequent items, each supported by that slice's tuple count. Returns
  /// true (and emits all combinations under `prefix`) when the shortcut
  /// applies.
  bool TrySingleGroup(const std::vector<Slice>& slices,
                      const std::vector<fpm::Rank>& frequent,
                      const std::vector<uint64_t>& counts,
                      std::vector<fpm::Rank>* prefix);

  /// Weighted-slice counterpart of TrySingleGroup.
  bool TrySingleGroupWeighted(const std::vector<WeightedSlice>& slices,
                              const std::vector<fpm::Rank>& frequent,
                              const std::vector<uint64_t>& counts,
                              std::vector<fpm::Rank>* prefix);

  /// Emits `prefix` (ranks) as a pattern with the given support.
  void EmitPattern(const std::vector<fpm::Rank>& prefix, uint64_t support);

  /// Emits every non-empty combination of `items` appended to `prefix`,
  /// all with the same support (single-group enumeration).
  void EmitCombinations(const std::vector<fpm::Rank>& items, uint64_t support,
                        std::vector<fpm::Rank>* prefix);

 private:
  template <typename SliceT>
  std::vector<fpm::Rank> CountImpl(const std::vector<SliceT>& slices,
                                   std::vector<uint64_t>* counts_out);

  template <typename SliceT>
  bool TrySingleGroupImpl(const std::vector<SliceT>& slices,
                          const std::vector<fpm::Rank>& frequent,
                          const std::vector<uint64_t>& counts,
                          std::vector<fpm::Rank>* prefix);

  const fpm::FList& flist_;
  const uint64_t min_support_;
  fpm::PatternSet* out_;
  fpm::MiningStats* stats_;
  RunContext* run_ctx_ = nullptr;
  std::vector<uint64_t> scratch_counts_;  // Rank-indexed, zeroed after use.
};

/// Approximate heap footprint of a weighted slice database, for budget
/// accounting in governed runs.
size_t ApproxWeightedSliceBytes(const std::vector<WeightedSlice>& slices);

/// Physically projects `slices` onto rank `f` (Definition 3.2 lifted to
/// slices): keeps tuples containing f, with only items ranked after f.
/// Slices whose projection carries no items are dropped.
std::vector<Slice> ProjectSlices(const std::vector<Slice>& slices,
                                 fpm::Rank f);

/// Converts a slice database into weighted form, merging identical rows.
std::vector<WeightedSlice> BuildWeightedSlices(const SliceDb& sdb);

/// Merges identical out rows of one slice, summing weights.
void DedupeWeightedOuts(
    std::vector<std::pair<std::vector<fpm::Rank>, uint64_t>>* outs);

/// Projects weighted slices onto rank `f`, re-merging identical suffixes.
std::vector<WeightedSlice> ProjectWeightedSlices(
    const std::vector<WeightedSlice>& slices, fpm::Rank f);

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_SLICE_DB_H_
