#include "fpm/apriori.h"

#include <algorithm>

#include "fpm/pattern.h"
#include "fpm/pattern_trie.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace gogreen::fpm {

namespace {

/// Generates level-(k+1) candidates from the lexicographically sorted level-k
/// frequent itemsets, with full subset pruning against `prev_trie`.
std::vector<std::vector<ItemId>> GenerateCandidates(
    const std::vector<std::vector<ItemId>>& prev, const PatternTrie& prev_trie) {
  std::vector<std::vector<ItemId>> candidates;
  const size_t k = prev.empty() ? 0 : prev[0].size();
  // Join step: pairs sharing the first k-1 items.
  for (size_t i = 0; i < prev.size(); ++i) {
    for (size_t j = i + 1; j < prev.size(); ++j) {
      if (!std::equal(prev[i].begin(), prev[i].end() - 1, prev[j].begin())) {
        break;  // Sorted order: once prefixes diverge they stay diverged.
      }
      std::vector<ItemId> cand = prev[i];
      cand.push_back(prev[j].back());
      // Prune step: every k-subset must be frequent. The two subsets that
      // omit one of the last two items are prev[i] / prev[j]; check the rest.
      bool ok = true;
      if (k >= 2) {
        std::vector<ItemId> sub(cand.size() - 1);
        for (size_t omit = 0; ok && omit + 2 < cand.size(); ++omit) {
          sub.clear();
          for (size_t x = 0; x < cand.size(); ++x) {
            if (x != omit) sub.push_back(cand[x]);
          }
          ok = prev_trie.Find(ItemSpan(sub)) != PatternTrie::kNoNode;
        }
      }
      if (ok) candidates.push_back(std::move(cand));
    }
  }
  return candidates;
}

}  // namespace

Result<PatternSet> AprioriMiner::MineImpl(const TransactionDb& db,
                                          uint64_t min_support) {
  stats_.Reset();
  GOGREEN_TRACE_SPAN("mine.apriori");
  Timer timer;
  PatternSet out;

  // Level 1 from a single support-counting scan.
  const std::vector<uint64_t> counts = db.CountItemSupports();
  std::vector<std::vector<ItemId>> level;
  for (size_t it = 0; it < counts.size(); ++it) {
    if (counts[it] >= min_support) {
      out.Add({static_cast<ItemId>(it)}, counts[it]);
      level.push_back({static_cast<ItemId>(it)});
    }
  }

  // Pre-filter transactions to frequent items once; infrequent items can
  // never contribute to a candidate.
  std::vector<std::vector<ItemId>> filtered;
  filtered.reserve(db.NumTransactions());
  for (Tid t = 0; t < db.NumTransactions(); ++t) {
    std::vector<ItemId> row;
    for (ItemId it : db.Transaction(t)) {
      if (counts[it] >= min_support) row.push_back(it);
    }
    if (row.size() >= 2) filtered.push_back(std::move(row));
  }

  PatternTrie prev_trie;
  for (const auto& items : level) prev_trie.Insert(ItemSpan(items));

  while (!level.empty()) {
    const std::vector<std::vector<ItemId>> candidates =
        GenerateCandidates(level, prev_trie);
    if (candidates.empty()) break;

    PatternTrie cand_trie;
    for (const auto& c : candidates) cand_trie.Insert(ItemSpan(c));
    for (const auto& row : filtered) {
      cand_trie.AddSupportForTransaction(ItemSpan(row));
      stats_.items_scanned += row.size();
    }

    level.clear();
    prev_trie.Clear();
    cand_trie.ForEachPattern(
        [&](const std::vector<ItemId>& items, uint64_t count, int64_t) {
          if (count >= min_support) {
            out.Add(items, count);
            level.push_back(items);
            prev_trie.Insert(ItemSpan(items));
          }
        });
    // ForEachPattern emits in lexicographic order, as GenerateCandidates
    // requires.
  }

  stats_.patterns_emitted = out.size();
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  RecordMiningStats(stats_);
  return out;
}

}  // namespace gogreen::fpm
