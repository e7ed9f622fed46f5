#include "core/constrained_mine.h"

#include <algorithm>

#include "core/slice_db.h"
#include "fpm/flist.h"
#include "util/timer.h"

namespace gogreen::core {

namespace {

using fpm::Rank;

/// The anti-monotone members of a constraint set, checkable on prefixes.
class AntiMonotonePruner {
 public:
  explicit AntiMonotonePruner(const fpm::ConstraintSet& constraints) {
    for (size_t i = 0; i < constraints.NumConstraints(); ++i) {
      if (constraints.constraint(i).category() ==
          fpm::ConstraintCategory::kAntiMonotone) {
        members_.push_back(&constraints.constraint(i));
      }
    }
  }

  /// True if the prefix fails some anti-monotone constraint (prune point).
  bool Prune(const fpm::Pattern& prefix) const {
    for (const fpm::Constraint* c : members_) {
      if (!c->Satisfies(prefix)) return true;
    }
    return false;
  }

  bool empty() const { return members_.empty(); }

 private:
  std::vector<const fpm::Constraint*> members_;
};

/// H-Mine-style recursion with a prune hook, over rank-encoded rows.
class ConstrainedHMine {
 public:
  ConstrainedHMine(const fpm::FList& flist, uint64_t min_support,
                   const AntiMonotonePruner& pruner, fpm::PatternSet* out,
                   fpm::MiningStats* stats)
      : flist_(flist),
        min_support_(min_support),
        pruner_(pruner),
        out_(out),
        stats_(stats),
        counts_(flist.size(), 0),
        local_of_(flist.size(), UINT32_MAX) {}

  struct Suffix {
    uint32_t row;
    uint32_t pos;
  };

  void Mine(const std::vector<std::vector<Rank>>& rows,
            const std::vector<Suffix>& projs, std::vector<Rank>* prefix) {
    std::vector<Rank> touched;
    for (const Suffix& s : projs) {
      const auto& row = rows[s.row];
      for (size_t i = s.pos; i < row.size(); ++i) {
        if (counts_[row[i]] == 0) touched.push_back(row[i]);
        ++counts_[row[i]];
        ++stats_->items_scanned;
      }
    }
    std::vector<Rank> frequent;
    for (Rank r : touched) {
      if (counts_[r] >= min_support_) frequent.push_back(r);
    }
    std::sort(frequent.begin(), frequent.end());
    std::vector<uint64_t> freq_counts(frequent.size());
    for (size_t i = 0; i < frequent.size(); ++i) {
      freq_counts[i] = counts_[frequent[i]];
    }
    for (Rank r : touched) counts_[r] = 0;
    if (frequent.empty()) return;

    // Anti-monotone pruning decides which extensions survive BEFORE the
    // buckets are built, so pruned subtrees cost nothing.
    std::vector<bool> keep(frequent.size(), true);
    size_t kept = 0;
    for (size_t i = 0; i < frequent.size(); ++i) {
      prefix->push_back(frequent[i]);
      fpm::Pattern candidate(flist_.DecodeRanks(*prefix), freq_counts[i]);
      std::sort(candidate.items.begin(), candidate.items.end());
      if (pruner_.Prune(candidate)) {
        keep[i] = false;
      } else {
        out_->Add(std::move(candidate));
        ++kept;
      }
      prefix->pop_back();
    }
    if (kept == 0) return;

    std::vector<std::vector<Suffix>> buckets(frequent.size());
    for (size_t i = 0; i < frequent.size(); ++i) {
      local_of_[frequent[i]] = keep[i] ? static_cast<uint32_t>(i)
                                       : UINT32_MAX;
    }
    for (const Suffix& s : projs) {
      const auto& row = rows[s.row];
      for (size_t i = s.pos; i + 1 < row.size(); ++i) {
        const uint32_t local = local_of_[row[i]];
        if (local != UINT32_MAX) {
          buckets[local].push_back(
              {s.row, static_cast<uint32_t>(i + 1)});
        }
      }
    }
    for (Rank r : frequent) local_of_[r] = UINT32_MAX;
    stats_->projections_built += kept;

    for (size_t i = 0; i < frequent.size(); ++i) {
      if (!keep[i] || buckets[i].empty()) continue;
      prefix->push_back(frequent[i]);
      Mine(rows, buckets[i], prefix);
      prefix->pop_back();
      buckets[i].clear();
      buckets[i].shrink_to_fit();
    }
  }

 private:
  const fpm::FList& flist_;
  const uint64_t min_support_;
  const AntiMonotonePruner& pruner_;
  fpm::PatternSet* out_;
  fpm::MiningStats* stats_;
  std::vector<uint64_t> counts_;
  std::vector<uint32_t> local_of_;
};

/// Slice recursion with the same prune hook (physical projection; the
/// simple RP-Mine shape is enough because pruning dominates the savings).
class ConstrainedSliceMine {
 public:
  ConstrainedSliceMine(SliceMiningContext* base,
                       const AntiMonotonePruner& pruner)
      : base_(base), pruner_(pruner) {}

  void Mine(const std::vector<Slice>& slices, std::vector<Rank>* prefix) {
    std::vector<uint64_t> counts;
    const std::vector<Rank> frequent =
        base_->CountFrequent(slices, &counts);
    for (size_t i = 0; i < frequent.size(); ++i) {
      prefix->push_back(frequent[i]);
      fpm::Pattern candidate(base_->flist().DecodeRanks(*prefix),
                             counts[i]);
      std::sort(candidate.items.begin(), candidate.items.end());
      const bool pruned = pruner_.Prune(candidate);
      if (!pruned) {
        base_->EmitPattern(*prefix, counts[i]);
        const std::vector<Slice> projected =
            ProjectSlices(slices, frequent[i]);
        ++base_->stats()->projections_built;
        if (!projected.empty()) Mine(projected, prefix);
      }
      prefix->pop_back();
    }
  }

 private:
  SliceMiningContext* base_;
  const AntiMonotonePruner& pruner_;
};

/// Applies the non-anti-monotone members (monotone, succinct, convertible)
/// as a final filter. Anti-monotone members already hold by construction
/// but re-checking is cheap and keeps Filter as the single source of truth.
fpm::PatternSet PostFilter(const fpm::PatternSet& raw,
                           const fpm::ConstraintSet& constraints) {
  return constraints.Filter(raw);
}

}  // namespace

Result<fpm::PatternSet> MineConstrained(const fpm::TransactionDb& db,
                                        const fpm::ConstraintSet& constraints,
                                        fpm::MiningStats* stats) {
  if (constraints.min_support() == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  fpm::MiningStats local;
  if (stats == nullptr) stats = &local;
  stats->Reset();
  Timer timer;

  fpm::PatternSet raw;
  const fpm::FList flist =
      fpm::FList::Build(db, constraints.min_support());
  if (!flist.empty()) {
    std::vector<std::vector<Rank>> rows;
    rows.reserve(db.NumTransactions());
    for (fpm::Tid t = 0; t < db.NumTransactions(); ++t) {
      std::vector<Rank> enc = flist.EncodeTransaction(db.Transaction(t));
      if (!enc.empty()) rows.push_back(std::move(enc));
    }
    std::vector<ConstrainedHMine::Suffix> all;
    all.reserve(rows.size());
    for (uint32_t r = 0; r < rows.size(); ++r) all.push_back({r, 0});

    const AntiMonotonePruner pruner(constraints);
    ConstrainedHMine miner(flist, constraints.min_support(), pruner, &raw,
                           stats);
    std::vector<Rank> prefix;
    miner.Mine(rows, all, &prefix);
  }

  fpm::PatternSet out = PostFilter(raw, constraints);
  stats->patterns_emitted = out.size();
  stats->elapsed_seconds = timer.ElapsedSeconds();
  return out;
}

Result<fpm::PatternSet> MineConstrainedCompressed(
    const CompressedDb& cdb, const fpm::ConstraintSet& constraints,
    fpm::MiningStats* stats) {
  if (constraints.min_support() == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  fpm::MiningStats local;
  if (stats == nullptr) stats = &local;
  stats->Reset();
  Timer timer;

  fpm::PatternSet raw;
  const fpm::FList flist = fpm::FList::FromCounts(
      cdb.CountItemSupports(cdb.ItemUniverseSize()),
      constraints.min_support());
  if (!flist.empty()) {
    const SliceDb sdb = SliceDb::Build(cdb, flist);
    SliceMiningContext base(flist, constraints.min_support(), &raw, stats);
    const AntiMonotonePruner pruner(constraints);
    ConstrainedSliceMine miner(&base, pruner);
    std::vector<Rank> prefix;
    miner.Mine(sdb.slices, &prefix);
  }

  fpm::PatternSet out = PostFilter(raw, constraints);
  stats->patterns_emitted = out.size();
  stats->elapsed_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace gogreen::core
