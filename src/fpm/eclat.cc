#include "fpm/eclat.h"

#include <algorithm>

#include "fpm/flist.h"
#include "util/bitset.h"

namespace gogreen::fpm {

namespace {

using TidList = std::vector<Tid>;

// ---------- Sorted tid-list layout ----------

struct ListExtension {
  ItemId item;
  TidList tids;
};

TidList Intersect(const TidList& a, const TidList& b) {
  TidList out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

class ListEclat {
 public:
  ListEclat(uint64_t min_support, PatternSet* out, MiningStats* stats)
      : min_support_(min_support), out_(out), stats_(stats) {}

  /// Depth-first expansion: for each extension, emit prefix+item and recurse
  /// on the intersections with the later extensions.
  void Expand(std::vector<ItemId>* prefix,
              const std::vector<ListExtension>& exts) {
    for (size_t i = 0; i < exts.size(); ++i) {
      prefix->push_back(exts[i].item);
      std::vector<ItemId> canonical = *prefix;
      std::sort(canonical.begin(), canonical.end());
      out_->Add(std::move(canonical), exts[i].tids.size());

      std::vector<ListExtension> next;
      for (size_t j = i + 1; j < exts.size(); ++j) {
        TidList shared = Intersect(exts[i].tids, exts[j].tids);
        stats_->items_scanned += exts[i].tids.size() + exts[j].tids.size();
        if (shared.size() >= min_support_) {
          next.push_back({exts[j].item, std::move(shared)});
        }
      }
      if (!next.empty()) {
        ++stats_->projections_built;
        Expand(prefix, next);
      }
      prefix->pop_back();
    }
  }

 private:
  uint64_t min_support_;
  PatternSet* out_;
  MiningStats* stats_;
};

// ---------- Tid-bitmap layout ----------

struct BitExtension {
  ItemId item;
  DynamicBitset tids;
  uint64_t support;
};

class BitEclat {
 public:
  BitEclat(uint64_t min_support, size_t num_tids, PatternSet* out,
           MiningStats* stats)
      : min_support_(min_support),
        num_tids_(num_tids),
        out_(out),
        stats_(stats) {}

  void Expand(std::vector<ItemId>* prefix,
              const std::vector<BitExtension>& exts) {
    for (size_t i = 0; i < exts.size(); ++i) {
      prefix->push_back(exts[i].item);
      std::vector<ItemId> canonical = *prefix;
      std::sort(canonical.begin(), canonical.end());
      out_->Add(std::move(canonical), exts[i].support);

      std::vector<BitExtension> next;
      for (size_t j = i + 1; j < exts.size(); ++j) {
        stats_->items_scanned += num_tids_ / 32;  // Word-parallel work.
        const size_t count = exts[i].tids.IntersectionCount(exts[j].tids);
        if (count >= min_support_) {
          DynamicBitset shared = exts[i].tids;
          shared.IntersectWith(exts[j].tids);
          next.push_back({exts[j].item, std::move(shared), count});
        }
      }
      if (!next.empty()) {
        ++stats_->projections_built;
        Expand(prefix, next);
      }
      prefix->pop_back();
    }
  }

 private:
  uint64_t min_support_;
  size_t num_tids_;
  PatternSet* out_;
  MiningStats* stats_;
};

/// Density heuristic: bitmaps win when the average frequent item occurs in
/// a sizable fraction of transactions (word-parallel AND beats merging
/// long lists).
bool PreferBitsets(const FList& flist, size_t num_transactions) {
  if (flist.empty() || num_transactions == 0) return false;
  uint64_t total = 0;
  for (Rank r = 0; r < flist.size(); ++r) total += flist.support(r);
  const double avg_density =
      static_cast<double>(total) /
      (static_cast<double>(flist.size()) *
       static_cast<double>(num_transactions));
  return avg_density > 0.15;
}

}  // namespace

PatternSet EclatMiner::MineImpl(const TransactionDb& db,
                                uint64_t min_support) {
  PatternSet out;

  const FList flist = FList::Build(db, min_support);
  if (!flist.empty()) {
    const bool bitsets =
        layout_ == EclatLayout::kBitsets ||
        (layout_ == EclatLayout::kAuto &&
         PreferBitsets(flist, db.NumTransactions()));

    std::vector<ItemId> prefix;
    if (bitsets) {
      std::vector<BitExtension> roots;
      roots.reserve(flist.size());
      for (Rank r = 0; r < flist.size(); ++r) {
        roots.push_back({flist.item(r), DynamicBitset(db.NumTransactions()),
                         flist.support(r)});
      }
      for (Tid t = 0; t < db.NumTransactions(); ++t) {
        for (ItemId it : db.Transaction(t)) {
          const Rank r = flist.rank(it);
          if (r != kNoRank) roots[r].tids.Set(t);
        }
      }
      BitEclat ctx(min_support, db.NumTransactions(), &out, &stats_);
      ctx.Expand(&prefix, roots);
    } else {
      // Vertical layout in F-list (support-ascending) order — smaller
      // lists first keeps intersections cheap.
      std::vector<ListExtension> roots(flist.size());
      for (Rank r = 0; r < flist.size(); ++r) {
        roots[r].item = flist.item(r);
        roots[r].tids.reserve(flist.support(r));
      }
      for (Tid t = 0; t < db.NumTransactions(); ++t) {
        for (ItemId it : db.Transaction(t)) {
          const Rank r = flist.rank(it);
          if (r != kNoRank) roots[r].tids.push_back(t);
        }
      }
      ListEclat ctx(min_support, &out, &stats_);
      ctx.Expand(&prefix, roots);
    }
  }
  return out;
}

}  // namespace gogreen::fpm
