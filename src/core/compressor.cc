#include "core/compressor.h"

#include <algorithm>
#include <numeric>

#include "check/check_db.h"
#include "fpm/pattern.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bitset.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gogreen::core {

namespace {

constexpr size_t kNoMatch = SIZE_MAX;

// Tuples per work unit of the parallel cover loop: large enough to amortize
// scheduling, small enough to balance skewed tuple lengths.
constexpr size_t kCoverChunk = 512;

/// Probes patterns (in utility order) against one tuple at a time.
/// `ranked[i]` is the pattern at utility position i.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Position (in utility order) of the best pattern contained in the
  /// tuple, or kNoMatch. The tuple is canonical.
  virtual size_t Match(fpm::ItemSpan tuple) = 0;
};

/// Shared bitmap-based subset test over the item universe.
class TupleBitmap {
 public:
  explicit TupleBitmap(size_t universe) : bits_(universe) {}

  void Load(fpm::ItemSpan tuple) {
    for (fpm::ItemId it : loaded_) bits_.Clear(it);
    loaded_.assign(tuple.begin(), tuple.end());
    for (fpm::ItemId it : loaded_) {
      if (it < bits_.size()) bits_.Set(it);
    }
  }

  bool ContainsAll(fpm::ItemSpan pattern) const {
    for (fpm::ItemId it : pattern) {
      if (it >= bits_.size() || !bits_.Test(it)) return false;
    }
    return true;
  }

 private:
  DynamicBitset bits_;
  std::vector<fpm::ItemId> loaded_;
};

class LinearMatcher : public Matcher {
 public:
  LinearMatcher(const std::vector<const fpm::Pattern*>& ranked,
                size_t universe)
      : ranked_(ranked), bitmap_(universe) {}

  size_t Match(fpm::ItemSpan tuple) override {
    bitmap_.Load(tuple);
    for (size_t pos = 0; pos < ranked_.size(); ++pos) {
      if (ranked_[pos]->size() <= tuple.size() &&
          bitmap_.ContainsAll(fpm::ItemSpan(ranked_[pos]->items))) {
        return pos;
      }
    }
    return kNoMatch;
  }

 private:
  const std::vector<const fpm::Pattern*>& ranked_;
  TupleBitmap bitmap_;
};

class InvertedIndexMatcher : public Matcher {
 public:
  InvertedIndexMatcher(const std::vector<const fpm::Pattern*>& ranked,
                       const std::vector<uint64_t>& item_supports,
                       size_t universe)
      : ranked_(ranked), bitmap_(universe), anchor_lists_(universe) {
    // Anchor each pattern on its rarest item: the item that prunes the most
    // tuples. Positions are appended ascending, so each list stays sorted by
    // utility rank.
    for (size_t pos = 0; pos < ranked_.size(); ++pos) {
      const fpm::Pattern& p = *ranked_[pos];
      fpm::ItemId anchor = p.items[0];
      for (fpm::ItemId it : p.items) {
        if (item_supports[it] < item_supports[anchor]) anchor = it;
      }
      anchor_lists_[anchor].push_back(pos);
    }
  }

  size_t Match(fpm::ItemSpan tuple) override {
    bitmap_.Load(tuple);
    // Probe the candidate positions anchored on this tuple's items in
    // ascending (best-utility-first) order via a k-way merge over the
    // per-item lists, stopping at the first containment — with good
    // coverage most tuples match within a handful of probes.
    heap_.clear();
    for (fpm::ItemId it : tuple) {
      if (it < anchor_lists_.size() && !anchor_lists_[it].empty()) {
        heap_.push_back({anchor_lists_[it].data(),
                         anchor_lists_[it].data() +
                             anchor_lists_[it].size()});
      }
    }
    const auto greater = [](const Cursor& a, const Cursor& b) {
      return *a.head > *b.head;
    };
    std::make_heap(heap_.begin(), heap_.end(), greater);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), greater);
      Cursor& top = heap_.back();
      const size_t pos = *top.head;
      if (ranked_[pos]->size() <= tuple.size() &&
          bitmap_.ContainsAll(fpm::ItemSpan(ranked_[pos]->items))) {
        return pos;
      }
      if (++top.head == top.end) {
        heap_.pop_back();
      } else {
        std::push_heap(heap_.begin(), heap_.end(), greater);
      }
    }
    return kNoMatch;
  }

 private:
  struct Cursor {
    const size_t* head;
    const size_t* end;
  };

  const std::vector<const fpm::Pattern*>& ranked_;
  TupleBitmap bitmap_;
  std::vector<std::vector<size_t>> anchor_lists_;
  std::vector<Cursor> heap_;
};

/// Flushes one finished compression run into the global metric registry,
/// mirroring the `mine.*` metrics fpm::RunMine flushes for miners.
void RecordCompressionStats(const CompressionStats& stats) {
  using obs::MetricRegistry;
  static obs::Counter* runs =
      MetricRegistry::Global().GetCounter("compress.runs");
  static obs::Counter* groups =
      MetricRegistry::Global().GetCounter("compress.groups_formed");
  static obs::Counter* covered =
      MetricRegistry::Global().GetCounter("compress.covered_tuples");
  static obs::Counter* uncovered =
      MetricRegistry::Global().GetCounter("compress.uncovered_tuples");
  static obs::Counter* original =
      MetricRegistry::Global().GetCounter("compress.original_items");
  static obs::Counter* stored =
      MetricRegistry::Global().GetCounter("compress.stored_items");
  static obs::Histogram* seconds =
      MetricRegistry::Global().GetHistogram("compress.seconds");
  runs->Add(1);
  groups->Add(stats.groups);
  covered->Add(stats.covered_tuples);
  uncovered->Add(stats.uncovered_tuples);
  original->Add(stats.original_items);
  stored->Add(stats.stored_items);
  seconds->Observe(stats.elapsed_seconds);
}

MatcherKind ResolveMatcher(MatcherKind requested,
                           const fpm::TransactionDb& db) {
  if (requested != MatcherKind::kAuto) return requested;
  // Sparse databases (tuples touch a tiny fraction of the universe) benefit
  // from anchoring; dense ones from the early-exit linear scan.
  const double universe = static_cast<double>(db.ItemUniverseSize());
  return (universe > 0 && db.AvgLength() / universe < 0.05)
             ? MatcherKind::kInvertedIndex
             : MatcherKind::kLinear;
}

}  // namespace

const char* MatcherKindName(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kLinear:
      return "linear";
    case MatcherKind::kInvertedIndex:
      return "inverted-index";
    case MatcherKind::kAuto:
      return "auto";
  }
  return "?";
}

Result<CompressedDb> CompressDatabase(const fpm::TransactionDb& db,
                                      const fpm::PatternSet& fp,
                                      const CompressorOptions& options,
                                      CompressionStats* stats) {
  for (const fpm::Pattern& p : fp) {
    if (p.items.empty()) {
      return Status::InvalidArgument("recycled pattern with no items");
    }
  }

  GOGREEN_TRACE_SPAN("compress");
  Timer timer;

  // Steps 1-2 (Figure 1): utility ranking.
  const std::vector<size_t> order = [&] {
    GOGREEN_TRACE_SPAN("compress.rank");
    return RankPatternsByUtility(fp, options.strategy, db.NumTransactions());
  }();
  std::vector<const fpm::Pattern*> ranked(order.size());
  for (size_t pos = 0; pos < order.size(); ++pos) {
    ranked[pos] = &fp[order[pos]];
  }

  // Steps 3-5: per-tuple best-pattern assignment. Matchers carry per-probe
  // scratch (tuple bitmap, merge heap), so the parallel path builds one per
  // lane; the item-support vector feeding the inverted index is computed
  // once and shared.
  const MatcherKind kind = ResolveMatcher(options.matcher, db);
  const std::vector<uint64_t> item_supports =
      kind == MatcherKind::kInvertedIndex ? db.CountItemSupports()
                                          : std::vector<uint64_t>();
  const auto make_matcher = [&]() -> std::unique_ptr<Matcher> {
    if (kind == MatcherKind::kInvertedIndex) {
      return std::make_unique<InvertedIndexMatcher>(ranked, item_supports,
                                                    db.ItemUniverseSize());
    }
    return std::make_unique<LinearMatcher>(ranked, db.ItemUniverseSize());
  };

  const size_t n = db.NumTransactions();
  std::vector<size_t> assignment(n, kNoMatch);
  std::vector<uint64_t> group_sizes(ranked.size() + 1, 0);  // +1: ungrouped.
  {
    GOGREEN_TRACE_SPAN("compress.cover");
    // One pinned pool for the whole cover pass: lane ids from ParallelFor
    // are guaranteed < pool->threads(), which sizes the lane accumulators.
    const std::shared_ptr<ThreadPool> pool = ThreadPool::Global();
    const size_t threads = pool->threads();
    RunContext* rctx = options.run_context;
    if (threads <= 1 || n < 2 * kCoverChunk) {
      const std::unique_ptr<Matcher> matcher = make_matcher();
      for (fpm::Tid t = 0; t < n; ++t) {
        // A governed stop leaves the remaining tuples unmatched (ungrouped):
        // the output stays a valid lossless encoding, just less compressed.
        if (rctx != nullptr && t % kCoverChunk == 0 && rctx->PollNow()) break;
        const size_t pos = matcher->Match(db.Transaction(t));
        assignment[t] = pos;
        ++group_sizes[pos == kNoMatch ? ranked.size() : pos];
      }
    } else {
      // Each tuple's match depends only on the tuple and the shared ranking,
      // so chunks of tids partition cleanly across lanes: disjoint writes to
      // `assignment`, per-lane group-size accumulators summed afterwards.
      // The result is identical to the sequential scan for any lane count.
      const size_t chunks = (n + kCoverChunk - 1) / kCoverChunk;
      std::vector<std::unique_ptr<Matcher>> lane_matchers(threads);
      std::vector<std::vector<uint64_t>> lane_sizes(threads);
      pool->ParallelFor(chunks, [&](size_t lane, size_t c) {
        // Chunk-granular governed stop; skipped chunks stay ungrouped.
        if (rctx != nullptr && rctx->PollNow()) return;
        if (!lane_matchers[lane]) {
          lane_matchers[lane] = make_matcher();
          lane_sizes[lane].assign(ranked.size() + 1, 0);
        }
        const size_t begin = c * kCoverChunk;
        const size_t end = std::min(n, begin + kCoverChunk);
        for (fpm::Tid t = static_cast<fpm::Tid>(begin); t < end; ++t) {
          const size_t pos = lane_matchers[lane]->Match(db.Transaction(t));
          assignment[t] = pos;
          ++lane_sizes[lane][pos == kNoMatch ? ranked.size() : pos];
        }
      });
      for (const std::vector<uint64_t>& sizes : lane_sizes) {
        for (size_t g = 0; g < sizes.size(); ++g) group_sizes[g] += sizes[g];
      }
    }
  }

  GOGREEN_TRACE_SPAN("compress.materialize");
  // Materialize groups in utility order; members in tid order per group.
  std::vector<std::vector<fpm::Tid>> members(ranked.size() + 1);
  for (size_t g = 0; g <= ranked.size(); ++g) {
    members[g].reserve(group_sizes[g]);
  }
  for (fpm::Tid t = 0; t < n; ++t) {
    members[assignment[t] == kNoMatch ? ranked.size() : assignment[t]]
        .push_back(t);
  }

  CompressedDb cdb;
  CompressionStats local;
  std::vector<fpm::ItemId> outlying;
  for (size_t pos = 0; pos <= ranked.size(); ++pos) {
    if (members[pos].empty()) continue;
    const bool ungrouped = pos == ranked.size();
    const fpm::ItemSpan pattern =
        ungrouped ? fpm::ItemSpan() : fpm::ItemSpan(ranked[pos]->items);
    cdb.AddGroup(pattern);
    if (!ungrouped) ++local.groups;
    for (fpm::Tid t : members[pos]) {
      const fpm::ItemSpan tuple = db.Transaction(t);
      outlying.clear();
      std::set_difference(tuple.begin(), tuple.end(), pattern.begin(),
                          pattern.end(), std::back_inserter(outlying));
      cdb.AddMember(t, outlying);
      if (ungrouped) {
        ++local.uncovered_tuples;
      } else {
        ++local.covered_tuples;
      }
    }
  }

  local.original_items = db.TotalItems();
  local.stored_items = cdb.StoredItems();
  local.elapsed_seconds = timer.ElapsedSeconds();
  RecordCompressionStats(local);
  if (stats != nullptr) *stats = local;
  // Lossless-cover check (tuple = pattern ∪ outlying, group counts sum to
  // |DB|) against the database just compressed.
  GOGREEN_VALIDATE_OR_DIE(check::ValidateCompressedDb(cdb, &db));
  return cdb;
}

}  // namespace gogreen::core
