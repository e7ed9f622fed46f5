#include "core/slice_db.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace gogreen::core {

using fpm::Rank;

namespace {

/// Uniform access to a slice's out rows: Slice rows weigh 1, WeightedSlice
/// rows carry their multiplicity.
inline const std::vector<Rank>& RowOf(const std::vector<Rank>& row) {
  return row;
}
inline uint64_t WeightOf(const std::vector<Rank>&) { return 1; }

inline const std::vector<Rank>& RowOf(
    const std::pair<std::vector<Rank>, uint64_t>& row) {
  return row.first;
}
inline uint64_t WeightOf(const std::pair<std::vector<Rank>, uint64_t>& row) {
  return row.second;
}

}  // namespace

SliceDb SliceDb::Build(const CompressedDb& cdb, const fpm::FList& flist) {
  SliceDb out;
  out.slices.reserve(cdb.NumGroups());
  for (GroupId g = 0; g < cdb.NumGroups(); ++g) {
    Slice slice;
    slice.pattern = flist.EncodeTransaction(cdb.PatternOf(g));
    for (uint64_t m = cdb.MemberBegin(g); m < cdb.MemberEnd(g); ++m) {
      std::vector<Rank> enc = flist.EncodeTransaction(cdb.Outlying(m));
      if (enc.empty()) {
        ++slice.empty_count;
      } else {
        slice.outs.push_back(std::move(enc));
      }
    }
    // A slice with no pattern carries information only through its outs;
    // with a pattern, even all-empty members contribute pattern counts.
    if (!slice.pattern.empty() || !slice.outs.empty()) {
      out.slices.push_back(std::move(slice));
    }
  }
  return out;
}

uint64_t SliceDb::StoredItems() const {
  uint64_t n = 0;
  for (const Slice& s : slices) {
    n += s.pattern.size();
    for (const auto& o : s.outs) n += o.size();
  }
  return n;
}

template <typename SliceT>
std::vector<Rank> SliceMiningContext::CountImpl(
    const std::vector<SliceT>& slices, std::vector<uint64_t>* counts_out) {
  if (scratch_counts_.size() < flist_.size()) {
    scratch_counts_.assign(flist_.size(), 0);
  }
  std::vector<Rank> touched;
  for (const SliceT& s : slices) {
    const uint64_t weight = s.count();
    for (Rank r : s.pattern) {
      if (scratch_counts_[r] == 0) touched.push_back(r);
      scratch_counts_[r] += weight;
      ++stats_->items_scanned;
    }
    for (const auto& out : s.outs) {
      const uint64_t w = WeightOf(out);
      for (Rank r : RowOf(out)) {
        if (scratch_counts_[r] == 0) touched.push_back(r);
        scratch_counts_[r] += w;
        ++stats_->items_scanned;
      }
    }
  }

  std::vector<Rank> frequent;
  for (Rank r : touched) {
    if (scratch_counts_[r] >= min_support_) frequent.push_back(r);
  }
  std::sort(frequent.begin(), frequent.end());

  counts_out->clear();
  counts_out->reserve(frequent.size());
  for (Rank r : frequent) counts_out->push_back(scratch_counts_[r]);
  for (Rank r : touched) scratch_counts_[r] = 0;
  return frequent;
}

std::vector<Rank> SliceMiningContext::CountFrequent(
    const std::vector<Slice>& slices, std::vector<uint64_t>* counts_out) {
  return CountImpl(slices, counts_out);
}

std::vector<Rank> SliceMiningContext::CountFrequentWeighted(
    const std::vector<WeightedSlice>& slices,
    std::vector<uint64_t>* counts_out) {
  return CountImpl(slices, counts_out);
}

template <typename SliceT>
bool SliceMiningContext::TrySingleGroupImpl(
    const std::vector<SliceT>& slices, const std::vector<Rank>& frequent,
    const std::vector<uint64_t>& counts, std::vector<Rank>* prefix) {
  if (frequent.empty()) return false;
  // Candidate slice: must contain every frequent item in its pattern and
  // account for its entire support. (Within one slice, outs are disjoint
  // from the pattern, so pattern membership already excludes out
  // occurrences in the same slice.)
  for (const SliceT& s : slices) {
    if (s.pattern.size() < frequent.size()) continue;
    if (!std::includes(s.pattern.begin(), s.pattern.end(), frequent.begin(),
                       frequent.end())) {
      continue;
    }
    const uint64_t weight = s.count();
    bool all_here = true;
    for (uint64_t c : counts) {
      if (c != weight) {
        all_here = false;
        break;
      }
    }
    if (all_here) {
      EmitCombinations(frequent, weight, prefix);
      return true;
    }
  }
  return false;
}

bool SliceMiningContext::TrySingleGroup(const std::vector<Slice>& slices,
                                        const std::vector<Rank>& frequent,
                                        const std::vector<uint64_t>& counts,
                                        std::vector<Rank>* prefix) {
  return TrySingleGroupImpl(slices, frequent, counts, prefix);
}

bool SliceMiningContext::TrySingleGroupWeighted(
    const std::vector<WeightedSlice>& slices,
    const std::vector<Rank>& frequent, const std::vector<uint64_t>& counts,
    std::vector<Rank>* prefix) {
  return TrySingleGroupImpl(slices, frequent, counts, prefix);
}

void SliceMiningContext::EmitPattern(const std::vector<Rank>& prefix,
                                     uint64_t support) {
  std::vector<fpm::ItemId> items = flist_.DecodeRanks(prefix);
  std::sort(items.begin(), items.end());
  out_->Add(std::move(items), support);
}

void SliceMiningContext::EmitCombinations(const std::vector<Rank>& items,
                                          uint64_t support,
                                          std::vector<Rank>* prefix) {
  const size_t k = items.size();
  GOGREEN_CHECK_LT(k, size_t{40});  // Combination explosion guard.
  for (uint64_t mask = 1; mask < (uint64_t{1} << k); ++mask) {
    size_t added = 0;
    for (size_t i = 0; i < k; ++i) {
      if ((mask >> i) & 1) {
        prefix->push_back(items[i]);
        ++added;
      }
    }
    EmitPattern(*prefix, support);
    for (size_t i = 0; i < added; ++i) prefix->pop_back();
  }
}

std::vector<Slice> ProjectSlices(const std::vector<Slice>& slices, Rank f) {
  std::vector<Slice> projected;
  for (const Slice& s : slices) {
    const auto pat_it =
        std::lower_bound(s.pattern.begin(), s.pattern.end(), f);
    const bool f_in_pattern = pat_it != s.pattern.end() && *pat_it == f;

    Slice next;
    if (f_in_pattern) {
      // Every member tuple contains f through the pattern.
      next.pattern.assign(pat_it + 1, s.pattern.end());
      next.empty_count = s.empty_count;
      for (const auto& out : s.outs) {
        const auto out_it = std::lower_bound(out.begin(), out.end(), f);
        if (out_it == out.end()) {
          ++next.empty_count;
        } else {
          next.outs.emplace_back(out_it, out.end());
        }
      }
      if (next.pattern.empty()) {
        // Members without remaining out items carry nothing.
        next.empty_count = 0;
      }
    } else {
      // Only members whose outlying part contains f qualify.
      next.pattern.assign(pat_it, s.pattern.end());
      for (const auto& out : s.outs) {
        const auto out_it = std::lower_bound(out.begin(), out.end(), f);
        if (out_it == out.end() || *out_it != f) continue;
        if (out_it + 1 == out.end()) {
          ++next.empty_count;
        } else {
          next.outs.emplace_back(out_it + 1, out.end());
        }
      }
      if (next.pattern.empty()) next.empty_count = 0;
      if (next.outs.empty() && next.empty_count == 0) continue;
    }
    if (next.pattern.empty() && next.outs.empty()) continue;
    projected.push_back(std::move(next));
  }
  return projected;
}

void DedupeWeightedOuts(
    std::vector<std::pair<std::vector<Rank>, uint64_t>>* outs) {
  if (outs->size() < 2) return;
  std::unordered_map<std::vector<Rank>, uint64_t, fpm::RankRowHash> merged;
  merged.reserve(outs->size());
  for (auto& [row, w] : *outs) merged[std::move(row)] += w;
  outs->clear();
  for (auto& [row, w] : merged) outs->emplace_back(row, w);
  // Canonical order: hash-map iteration order is an implementation detail,
  // and downstream scans must not depend on it.
  std::sort(outs->begin(), outs->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::vector<WeightedSlice> BuildWeightedSlices(const SliceDb& sdb) {
  std::vector<WeightedSlice> out;
  out.reserve(sdb.slices.size());
  for (const Slice& s : sdb.slices) {
    WeightedSlice ws;
    ws.pattern = s.pattern;
    ws.empty_count = s.empty_count;
    ws.outs.reserve(s.outs.size());
    for (const auto& row : s.outs) ws.outs.emplace_back(row, 1);
    DedupeWeightedOuts(&ws.outs);
    out.push_back(std::move(ws));
  }
  return out;
}

/// Merges slices with identical pattern suffixes: their member sets are
/// disjoint, so outs concatenate and counts add. Projections frequently
/// create such collisions (correlated recycled patterns share suffixes),
/// and merging restores the cross-group sharing an FP-tree gets from its
/// shared upper branches.
void MergeEqualPatterns(std::vector<WeightedSlice>* slices) {
  if (slices->size() < 2) return;
  std::unordered_map<std::vector<Rank>, size_t, fpm::RankRowHash> first;
  first.reserve(slices->size());
  std::vector<WeightedSlice> merged;
  merged.reserve(slices->size());
  for (WeightedSlice& s : *slices) {
    const auto [it, inserted] = first.try_emplace(s.pattern, merged.size());
    if (inserted) {
      merged.push_back(std::move(s));
    } else {
      WeightedSlice& dst = merged[it->second];
      dst.empty_count += s.empty_count;
      for (auto& out : s.outs) dst.outs.push_back(std::move(out));
      DedupeWeightedOuts(&dst.outs);
    }
  }
  *slices = std::move(merged);
}

std::vector<WeightedSlice> ProjectWeightedSlices(
    const std::vector<WeightedSlice>& slices, Rank f) {
  std::vector<WeightedSlice> projected;
  for (const WeightedSlice& s : slices) {
    const auto pat_it =
        std::lower_bound(s.pattern.begin(), s.pattern.end(), f);
    const bool f_in_pattern = pat_it != s.pattern.end() && *pat_it == f;

    WeightedSlice next;
    if (f_in_pattern) {
      next.pattern.assign(pat_it + 1, s.pattern.end());
      next.empty_count = s.empty_count;
      for (const auto& [row, w] : s.outs) {
        const auto it = std::lower_bound(row.begin(), row.end(), f);
        if (it == row.end()) {
          next.empty_count += w;
        } else {
          next.outs.emplace_back(std::vector<Rank>(it, row.end()), w);
        }
      }
      if (next.pattern.empty()) next.empty_count = 0;
    } else {
      next.pattern.assign(pat_it, s.pattern.end());
      for (const auto& [row, w] : s.outs) {
        const auto it = std::lower_bound(row.begin(), row.end(), f);
        if (it == row.end() || *it != f) continue;
        if (it + 1 == row.end()) {
          next.empty_count += w;
        } else {
          next.outs.emplace_back(std::vector<Rank>(it + 1, row.end()), w);
        }
      }
      if (next.pattern.empty()) next.empty_count = 0;
      if (next.outs.empty() && next.empty_count == 0) continue;
    }
    if (next.pattern.empty() && next.outs.empty()) continue;
    DedupeWeightedOuts(&next.outs);
    projected.push_back(std::move(next));
  }
  MergeEqualPatterns(&projected);
  return projected;
}

size_t ApproxWeightedSliceBytes(const std::vector<WeightedSlice>& slices) {
  size_t bytes = slices.size() * sizeof(WeightedSlice);
  for (const WeightedSlice& s : slices) {
    bytes += s.pattern.size() * sizeof(Rank);
    bytes += s.outs.size() *
             sizeof(std::pair<std::vector<Rank>, uint64_t>);
    for (const auto& [row, w] : s.outs) bytes += row.size() * sizeof(Rank);
  }
  return bytes;
}

}  // namespace gogreen::core
