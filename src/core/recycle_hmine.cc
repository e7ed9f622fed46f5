#include "core/recycle_hmine.h"

#include <algorithm>
#include <memory>

#include "core/slice_db.h"
#include "fpm/hmine.h"
#include "fpm/parallel_mine.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gogreen::core {

namespace {

using fpm::kNoRank;
using fpm::Rank;
using fpm::Suffix;

// A projected compressed database is kept as four entry species so that the
// expensive aggregate machinery is paid only where group sharing actually
// exists. This mirrors RP-Struct's split into group heads (group-links) and
// group tails (item-links), refined by member count:
//
//   ProjSlice     multi-member group, members still carry outlying items;
//                 the pattern suffix is counted once with the group weight.
//   GroupPattern  multi-member group whose members' outlying items are all
//                 consumed: just (pattern suffix, count). Dominant on dense
//                 data.
//   PairedTail    single member with live pattern suffix + outlying suffix.
//                 A group of one has nothing to share, so it is a POD.
//   Plain         single member whose pattern is consumed: an H-Mine
//                 suffix (fpm::Suffix). Dominant on sparse data (the
//                 uncovered part of the database). A projection holding
//                 only plain rows is mined by H-Mine itself.

/// Reference to the unconsumed suffix of one member's outlying row in the
/// flattened out storage.
struct TailRef {
  uint32_t row;
  uint32_t pos;
};

struct ProjSlice {
  uint32_t slice_id;
  uint32_t pattern_pos;
  uint64_t full_count;  // Members with no remaining outlying items.
  std::vector<TailRef> tails;  // Members with live outlying suffixes.

  uint64_t count() const { return full_count + tails.size(); }
};

struct GroupPattern {
  uint32_t slice_id;
  uint32_t pattern_pos;
  uint64_t count;  // 0 = tombstone (upgraded to a ProjSlice).
};

struct PairedTail {
  uint32_t row;  // UINT32_MAX = tombstone (upgraded to a ProjSlice).
  uint32_t pos;
  uint32_t slice_id;
  uint32_t pattern_pos;
};

struct ProjectedDb {
  std::vector<ProjSlice> slices;
  std::vector<GroupPattern> gpatterns;
  std::vector<PairedTail> paired;
  std::vector<Suffix> plain;

  bool empty() const {
    return slices.empty() && gpatterns.empty() && paired.empty() &&
           plain.empty();
  }
};

/// Approximate heap footprint of one projected database, for budget
/// accounting in governed runs.
size_t ProjectedDbBytes(const ProjectedDb& db) {
  size_t bytes = db.slices.size() * sizeof(ProjSlice) +
                 db.gpatterns.size() * sizeof(GroupPattern) +
                 db.paired.size() * sizeof(PairedTail) +
                 db.plain.size() * sizeof(Suffix);
  for (const ProjSlice& ps : db.slices) {
    bytes += ps.tails.size() * sizeof(TailRef);
  }
  return bytes;
}

/// All outlying rows of a SliceDb flattened into one CSR for cache-friendly
/// scans, and the RowSource H-Mine reads plain rows from. Read-only after
/// construction, so it is built once per run and shared by every worker's
/// context.
struct FlatOuts {
  std::vector<Rank> data;
  std::vector<uint32_t> offsets;  // Row boundaries in data.

  explicit FlatOuts(const SliceDb& sdb) {
    size_t total = 0;
    size_t rows = 0;
    for (const Slice& s : sdb.slices) {
      rows += s.outs.size();
      for (const auto& o : s.outs) total += o.size();
    }
    data.reserve(total);
    offsets.reserve(rows + 1);
    offsets.push_back(0);
    for (const Slice& s : sdb.slices) {
      for (const auto& o : s.outs) {
        data.insert(data.end(), o.begin(), o.end());
        offsets.push_back(static_cast<uint32_t>(data.size()));
      }
    }
  }

  std::span<const Rank> Transaction(fpm::Tid row) const {
    return {data.data() + offsets[row], offsets[row + 1] - offsets[row]};
  }
};

/// One lane's mining state: the slice machinery plus the H-Mine context
/// that takes over the projections with no group structure left.
class RecycleHmContext {
 public:
  RecycleHmContext(const SliceDb& sdb, const FlatOuts& fouts,
                   const fpm::FList& flist, uint64_t min_support,
                   RunContext* run_ctx)
      : sdb_(sdb),
        fouts_(fouts),
        base_(flist, min_support, nullptr, nullptr),
        plain_(fouts, flist, min_support, nullptr, nullptr),
        counts_(flist.size(), 0),
        local_of_(flist.size(), UINT32_MAX),
        entry_kind_(flist.size(), kNone),
        entry_idx_(flist.size(), 0),
        entry_stamp_(flist.size(), 0) {
    base_.BindRunContext(run_ctx);
    plain_.BindRunContext(run_ctx);
  }

  /// Redirects emission and counters, e.g. into a per-worker shard; the
  /// scratch is kept, so a lane's context serves successive subtrees.
  void SetSinks(fpm::PatternSet* out, fpm::MiningStats* stats) {
    base_.SetSinks(out, stats);
    plain_.SetSinks(out, stats);
  }

  void EmitPattern(const std::vector<Rank>& prefix, uint64_t support) {
    base_.EmitPattern(prefix, support);
  }

  /// Returns false iff a governed stop abandoned part of the subtree.
  bool Mine(const ProjectedDb& projs, std::vector<Rank>* prefix) {
    if (projs.slices.empty() && projs.gpatterns.empty() &&
        projs.paired.empty()) {
      // No group structure left in this subtree: it is an H-Mine
      // projection, dense switch included.
      return plain_.Mine(projs.plain, prefix);
    }
    std::vector<uint64_t> freq_counts;
    const std::vector<Rank> frequent = Count(projs, &freq_counts);
    if (frequent.empty()) return true;

    if (TrySingleGroup(projs, frequent, freq_counts, prefix)) return true;

    // One pass threads every extension's bucket (Fill-RPHeader, §4.1).
    std::vector<ProjectedDb> buckets(frequent.size());
    BuildBuckets(projs, frequent, &buckets);
    base_.stats()->projections_built += frequent.size();
    // The buckets are this level's dominant scratch; charge them for the
    // time the recursion below keeps them alive.
    size_t bucket_bytes = 0;
    if (base_.run_context() != nullptr) {
      for (const ProjectedDb& b : buckets) bucket_bytes += ProjectedDbBytes(b);
    }
    const ScopedBytes charge(base_.run_context(), bucket_bytes);

    bool completed = true;
    for (size_t i = 0; i < frequent.size(); ++i) {
      if (base_.ShouldStop()) {
        completed = false;
        break;
      }
      prefix->push_back(frequent[i]);
      base_.EmitPattern(*prefix, freq_counts[i]);
      if (!buckets[i].empty() && !Mine(buckets[i], prefix)) completed = false;
      prefix->pop_back();
      buckets[i] = ProjectedDb();  // Release level memory eagerly.
    }
    return completed;
  }

  /// Root projected database classifying each slice by species.
  ProjectedDb Root() const {
    ProjectedDb projs;
    uint32_t row = 0;
    for (uint32_t sid = 0; sid < sdb_.slices.size(); ++sid) {
      const Slice& s = sdb_.slices[sid];
      const uint32_t first_row = row;
      row += static_cast<uint32_t>(s.outs.size());
      if (s.pattern.empty()) {
        for (uint32_t r = first_row; r < row; ++r) {
          projs.plain.push_back({r, 0});
        }
      } else if (s.outs.empty()) {
        projs.gpatterns.push_back({sid, 0, s.empty_count});
      } else if (s.outs.size() == 1 && s.empty_count == 0) {
        projs.paired.push_back({first_row, 0, sid, 0});
      } else {
        ProjSlice ps{sid, 0, s.empty_count, {}};
        ps.tails.reserve(s.outs.size());
        for (uint32_t r = first_row; r < row; ++r) ps.tails.push_back({r, 0});
        projs.slices.push_back(std::move(ps));
      }
    }
    return projs;
  }

 private:
  std::span<const Rank> Pattern(uint32_t slice_id, uint32_t pos) const {
    const Slice& s = sdb_.slices[slice_id];
    return {s.pattern.data() + pos, s.pattern.size() - pos};
  }

  std::span<const Rank> RowSuffix(uint32_t row, uint32_t pos) const {
    return fouts_.Transaction(row).subspan(pos);
  }

  uint32_t RowLen(uint32_t row) const {
    return static_cast<uint32_t>(fouts_.Transaction(row).size());
  }

  /// First unconsumed position of a row under a floor (kNoRank = none).
  uint32_t FlooredPos(uint32_t row, uint32_t pos, Rank floor) const {
    if (floor == kNoRank) return pos;
    const std::span<const Rank> r = fouts_.Transaction(row);
    return static_cast<uint32_t>(
        std::upper_bound(r.begin() + pos, r.end(), floor) - r.begin());
  }

  void CountSpan(std::span<const Rank> span, uint64_t weight,
                 std::vector<Rank>* touched) {
    for (Rank r : span) {
      if (counts_[r] == 0) touched->push_back(r);
      counts_[r] += weight;
    }
    base_.stats()->items_scanned += span.size();
  }

 public:
  /// One counting pass over all species: the frequent extension ranks
  /// ascending, with `freq_counts[i]` their supports. Exposed so
  /// MineSlicesHM can expand the root level before fanning out.
  std::vector<Rank> Count(const ProjectedDb& projs,
                          std::vector<uint64_t>* freq_counts) {
    std::vector<Rank> touched;
    for (const ProjSlice& ps : projs.slices) {
      CountSpan(Pattern(ps.slice_id, ps.pattern_pos), ps.count(), &touched);
      for (const TailRef& tail : ps.tails) {
        CountSpan(RowSuffix(tail.row, tail.pos), 1, &touched);
      }
    }
    for (const GroupPattern& gp : projs.gpatterns) {
      if (gp.count == 0) continue;  // Tombstone.
      CountSpan(Pattern(gp.slice_id, gp.pattern_pos), gp.count, &touched);
    }
    for (const PairedTail& pt : projs.paired) {
      if (pt.row == UINT32_MAX) continue;  // Tombstone.
      CountSpan(Pattern(pt.slice_id, pt.pattern_pos), 1, &touched);
      CountSpan(RowSuffix(pt.row, pt.pos), 1, &touched);
    }
    for (const Suffix& s : projs.plain) {
      CountSpan(RowSuffix(s.tid, s.pos), 1, &touched);
    }

    std::vector<Rank> frequent;
    for (Rank r : touched) {
      if (counts_[r] >= base_.min_support()) frequent.push_back(r);
    }
    std::sort(frequent.begin(), frequent.end());
    freq_counts->clear();
    for (Rank r : frequent) freq_counts->push_back(counts_[r]);
    for (Rank r : touched) counts_[r] = 0;
    return frequent;
  }

  /// Lemma 3.1 over all group-bearing species.
  bool TrySingleGroup(const ProjectedDb& projs,
                      const std::vector<Rank>& frequent,
                      const std::vector<uint64_t>& freq_counts,
                      std::vector<Rank>* prefix) {
    const auto check = [&](std::span<const Rank> pat,
                           uint64_t weight) -> bool {
      if (pat.size() < frequent.size()) return false;
      if (!std::includes(pat.begin(), pat.end(), frequent.begin(),
                         frequent.end())) {
        return false;
      }
      for (uint64_t c : freq_counts) {
        if (c != weight) return false;
      }
      base_.EmitCombinations(frequent, weight, prefix);
      return true;
    };

    for (const ProjSlice& ps : projs.slices) {
      if (check(Pattern(ps.slice_id, ps.pattern_pos), ps.count())) {
        return true;
      }
    }
    for (const GroupPattern& gp : projs.gpatterns) {
      if (gp.count != 0 &&
          check(Pattern(gp.slice_id, gp.pattern_pos), gp.count)) {
        return true;
      }
    }
    for (const PairedTail& pt : projs.paired) {
      if (pt.row != UINT32_MAX &&
          check(Pattern(pt.slice_id, pt.pattern_pos), 1)) {
        return true;
      }
    }
    return false;
  }

  void BuildBuckets(const ProjectedDb& projs,
                    const std::vector<Rank>& frequent,
                    std::vector<ProjectedDb>* buckets) {
    for (size_t i = 0; i < frequent.size(); ++i) {
      local_of_[frequent[i]] = static_cast<uint32_t>(i);
    }

    for (const ProjSlice& ps : projs.slices) ThreadProjSlice(ps, buckets);

    for (const GroupPattern& gp : projs.gpatterns) {
      if (gp.count == 0) continue;
      const auto pat = Pattern(gp.slice_id, gp.pattern_pos);
      for (size_t k = 0; k + 1 < pat.size(); ++k) {
        const uint32_t local = local_of_[pat[k]];
        if (local == UINT32_MAX) continue;
        (*buckets)[local].gpatterns.push_back(
            {gp.slice_id, gp.pattern_pos + static_cast<uint32_t>(k + 1),
             gp.count});
      }
    }

    for (const PairedTail& pt : projs.paired) {
      if (pt.row == UINT32_MAX) continue;
      ThreadSingleMember(pt.slice_id, pt.pattern_pos, pt.row, pt.pos,
                         buckets);
    }

    // Plain rows: exactly H-Mine's suffix threading, empty suffixes
    // included, so a projection left with plain rows only is the one H-Mine
    // would have built.
    for (const Suffix& s : projs.plain) {
      const auto row = fouts_.Transaction(s.tid);
      for (size_t j = s.pos; j < row.size(); ++j) {
        const uint32_t local = local_of_[row[j]];
        if (local == UINT32_MAX) continue;
        (*buckets)[local].plain.push_back(
            {s.tid, static_cast<uint32_t>(j + 1)});
      }
    }

    for (Rank r : frequent) local_of_[r] = UINT32_MAX;
  }

 private:
  // -- Bucket builders per species --

  /// Appends the projections of one member (pattern suffix + out suffix)
  /// onto each frequent item it contains, without aggregation. Used by
  /// PairedTail sources and by ProjSlice group heads that degrade.
  void ThreadSingleMember(uint32_t slice_id, uint32_t pattern_pos,
                          uint32_t row, uint32_t pos,
                          std::vector<ProjectedDb>* buckets) {
    const auto pat = Pattern(slice_id, pattern_pos);
    // Pattern items: the member keeps its out suffix whole.
    for (size_t k = 0; k < pat.size(); ++k) {
      const uint32_t local = local_of_[pat[k]];
      if (local == UINT32_MAX) continue;
      const bool pattern_left = k + 1 < pat.size();
      const uint32_t out_pos = FlooredPos(row, pos, pat[k]);
      const bool out_left = out_pos < RowLen(row);
      const uint32_t pat_pos2 =
          pattern_pos + static_cast<uint32_t>(k + 1);
      if (pattern_left && out_left) {
        (*buckets)[local].paired.push_back({row, out_pos, slice_id,
                                            pat_pos2});
      } else if (pattern_left) {
        (*buckets)[local].gpatterns.push_back({slice_id, pat_pos2, 1});
      } else if (out_left) {
        (*buckets)[local].plain.push_back({row, out_pos});
      }
    }
    // Outlying items: keep the pattern items ranked above them.
    const auto out = RowSuffix(row, pos);
    size_t pat_k = 0;
    for (size_t j = 0; j < out.size(); ++j) {
      const Rank o = out[j];
      const uint32_t local = local_of_[o];
      if (local == UINT32_MAX) continue;
      while (pat_k < pat.size() && pat[pat_k] < o) ++pat_k;
      const bool pattern_left = pat_k < pat.size();
      const bool out_left = j + 1 < out.size();
      const uint32_t pat_pos2 =
          pattern_pos + static_cast<uint32_t>(pat_k);
      const uint32_t out_pos = pos + static_cast<uint32_t>(j + 1);
      if (pattern_left && out_left) {
        (*buckets)[local].paired.push_back({row, out_pos, slice_id,
                                            pat_pos2});
      } else if (pattern_left) {
        (*buckets)[local].gpatterns.push_back({slice_id, pat_pos2, 1});
      } else if (out_left) {
        (*buckets)[local].plain.push_back({row, out_pos});
      }
    }
  }

  void ThreadProjSlice(const ProjSlice& ps,
                       std::vector<ProjectedDb>* buckets) {
    const auto pat = Pattern(ps.slice_id, ps.pattern_pos);

    // Group-head contributions: projecting on a pattern item keeps every
    // member. Tails are advanced past the projection item eagerly, folding
    // exhausted members into full_count (so tail lists only shrink); when
    // the pattern suffix is consumed the survivors degrade to plain rows.
    for (size_t k = 0; k < pat.size(); ++k) {
      const uint32_t local = local_of_[pat[k]];
      if (local == UINT32_MAX) continue;
      const uint32_t pat_pos2 =
          ps.pattern_pos + static_cast<uint32_t>(k + 1);
      if (k + 1 < pat.size()) {
        ProjSlice next{ps.slice_id, pat_pos2, ps.full_count, {}};
        next.tails.reserve(ps.tails.size());
        for (const TailRef& tail : ps.tails) {
          const uint32_t out_pos = FlooredPos(tail.row, tail.pos, pat[k]);
          if (out_pos < RowLen(tail.row)) {
            next.tails.push_back({tail.row, out_pos});
          } else {
            ++next.full_count;
          }
        }
        if (next.tails.empty()) {
          (*buckets)[local].gpatterns.push_back(
              {ps.slice_id, pat_pos2,
               next.full_count});
        } else if (next.tails.size() == 1 && next.full_count == 0) {
          (*buckets)[local].paired.push_back(
              {next.tails[0].row, next.tails[0].pos, ps.slice_id,
               pat_pos2});
        } else {
          (*buckets)[local].slices.push_back(std::move(next));
        }
      } else {
        for (const TailRef& tail : ps.tails) {
          const uint32_t out_pos = FlooredPos(tail.row, tail.pos, pat[k]);
          if (out_pos < RowLen(tail.row)) {
            (*buckets)[local].plain.push_back({tail.row, out_pos});
          }
        }
      }
    }

    // Tail contributions: members whose outs contain the projection item.
    // Members of one (slice, item) pair aggregate lazily, upgrading
    // singleton entries to shared ones on the second member.
    ++serial_;
    for (const TailRef& tail : ps.tails) {
      const uint32_t start = tail.pos;
      const auto out = RowSuffix(tail.row, start);
      size_t pat_k = 0;
      for (size_t j = 0; j < out.size(); ++j) {
        const Rank o = out[j];
        const uint32_t local = local_of_[o];
        if (local == UINT32_MAX) continue;
        while (pat_k < pat.size() && pat[pat_k] < o) ++pat_k;
        const bool pattern_left = pat_k < pat.size();
        const bool out_left = j + 1 < out.size();
        const uint32_t out_pos = start + static_cast<uint32_t>(j + 1);
        if (!pattern_left) {
          if (out_left) (*buckets)[local].plain.push_back({tail.row, out_pos});
          continue;
        }
        const uint32_t pat_pos2 =
            ps.pattern_pos + static_cast<uint32_t>(pat_k);
        AddAggregated(ps.slice_id, pat_pos2, o, local, out_left, tail.row,
                      out_pos, buckets);
      }
    }
  }

  /// Lazy aggregation of tail-case members under one (source slice,
  /// projection item) key, upgrading representation as members accumulate.
  void AddAggregated(uint32_t slice_id, uint32_t pat_pos, Rank o,
                     uint32_t local, bool out_left, uint32_t row,
                     uint32_t out_pos, std::vector<ProjectedDb>* buckets) {
    ProjectedDb& bucket = (*buckets)[local];
    if (entry_stamp_[o] != serial_) {
      // First member for this (slice, o).
      entry_stamp_[o] = serial_;
      if (out_left) {
        entry_kind_[o] = kPaired;
        entry_idx_[o] = bucket.paired.size();
        bucket.paired.push_back({row, out_pos, slice_id, pat_pos});
      } else {
        entry_kind_[o] = kGPattern;
        entry_idx_[o] = bucket.gpatterns.size();
        bucket.gpatterns.push_back({slice_id, pat_pos, 1});
      }
      return;
    }
    // Later members: upgrade to a shared ProjSlice if not one already.
    if (entry_kind_[o] != kSlice) {
      ProjSlice shared{slice_id, pat_pos, 0, {}};
      if (entry_kind_[o] == kPaired) {
        PairedTail& old = bucket.paired[entry_idx_[o]];
        shared.tails.push_back({old.row, old.pos});
        old.row = UINT32_MAX;  // Tombstone.
      } else {
        GroupPattern& old = bucket.gpatterns[entry_idx_[o]];
        shared.full_count = old.count;
        old.count = 0;  // Tombstone.
      }
      entry_kind_[o] = kSlice;
      entry_idx_[o] = bucket.slices.size();
      bucket.slices.push_back(std::move(shared));
    }
    ProjSlice& entry = bucket.slices[entry_idx_[o]];
    if (out_left) {
      entry.tails.push_back({row, out_pos});
    } else {
      ++entry.full_count;
    }
  }

  enum EntryKind : uint8_t { kNone, kPaired, kGPattern, kSlice };

  const SliceDb& sdb_;
  const FlatOuts& fouts_;              // Shared flattened outlying rows.
  SliceMiningContext base_;
  fpm::HMineContext<FlatOuts> plain_;  // Mines plain-only projections.
  std::vector<uint64_t> counts_;       // Scratch, zero between calls.
  std::vector<uint32_t> local_of_;     // Scratch, UINT32_MAX between calls.
  std::vector<uint8_t> entry_kind_;    // Aggregation state per rank.
  std::vector<size_t> entry_idx_;
  std::vector<uint64_t> entry_stamp_;  // Last serial that touched each rank.
  // Strictly increasing id per source ProjSlice: a (rank, serial) match
  // identifies "this source already opened an entry for this rank".
  uint64_t serial_ = 0;
};

}  // namespace

bool MineSlicesHM(const SliceDb& sdb, const fpm::FList& flist,
                  uint64_t min_support,
                  const std::vector<fpm::Rank>& prefix_ranks,
                  fpm::PatternSet* out, fpm::MiningStats* stats,
                  RunContext* run_ctx) {
  const FlatOuts fouts(sdb);
  RecycleHmContext root_ctx(sdb, fouts, flist, min_support, run_ctx);
  root_ctx.SetSinks(out, stats);
  std::vector<Rank> prefix = prefix_ranks;
  const ProjectedDb root = root_ctx.Root();

  // Expand the root level once, then mine the first-level projections
  // through MineFirstLevel. Like H-Mine's root, a plain-only root is
  // expanded here, never switched.
  std::vector<uint64_t> freq_counts;
  const std::vector<Rank> frequent = root_ctx.Count(root, &freq_counts);
  if (frequent.empty()) return true;
  if (root_ctx.TrySingleGroup(root, frequent, freq_counts, &prefix)) {
    return true;
  }

  std::vector<ProjectedDb> buckets(frequent.size());
  root_ctx.BuildBuckets(root, frequent, &buckets);
  stats->projections_built += frequent.size();

  // Lane-local contexts reuse their rank-indexed scratch across subtrees;
  // all of them share the read-only SliceDb and CSR.
  const std::shared_ptr<ThreadPool> pool = ThreadPool::Global();
  std::vector<std::unique_ptr<RecycleHmContext>> lanes(pool->threads());
  const auto mine_subtree = [&](fpm::MineShard* shard, size_t lane,
                                size_t i) -> bool {
    std::unique_ptr<RecycleHmContext>& ctx = lanes[lane];
    if (!ctx) {
      ctx = std::make_unique<RecycleHmContext>(sdb, fouts, flist, min_support,
                                               run_ctx);
    }
    ctx->SetSinks(&shard->patterns, &shard->stats);
    std::vector<Rank> sub_prefix = prefix;
    sub_prefix.push_back(frequent[i]);
    ctx->EmitPattern(sub_prefix, freq_counts[i]);
    if (buckets[i].empty()) return true;
    const bool completed = ctx->Mine(buckets[i], &sub_prefix);
    buckets[i] = ProjectedDb();  // Release level memory eagerly.
    return completed;
  };

  // Root buckets are charged for the whole fan-out.
  size_t root_bytes = 0;
  if (run_ctx != nullptr) {
    for (const ProjectedDb& b : buckets) root_bytes += ProjectedDbBytes(b);
  }
  const ScopedBytes root_charge(run_ctx, root_bytes);
  return fpm::MineFirstLevel(pool, frequent.size(), mine_subtree, out, stats,
                             run_ctx, freq_counts,
                             /*mark_frontier=*/prefix_ranks.empty());
}

fpm::PatternSet RecycleHMineMiner::MineImpl(const SliceDb& sdb,
                                            const fpm::FList& flist,
                                            uint64_t min_support) {
  fpm::PatternSet out;
  MineSlicesHM(sdb, flist, min_support, {}, &out, &stats_, run_ctx_);
  return out;
}

}  // namespace gogreen::core
