#include "fpm/parallel_mine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace gogreen::fpm {

bool MineFirstLevel(
    const std::shared_ptr<ThreadPool>& pool, size_t n,
    const std::function<bool(MineShard* shard, size_t lane, size_t i)>& mine,
    PatternSet* out, MiningStats* stats, RunContext* ctx,
    const std::vector<uint64_t>& level_supports, bool mark_frontier) {
  GOGREEN_DCHECK_EQ(level_supports.size(), n);
  if (n == 0) return true;

  std::vector<MineShard> shards(n);
  std::vector<uint8_t> done(n, 0);
  // Lanes claim subtrees top-down (descending index = descending support).
  std::atomic<size_t> cursor{0};
  const auto lane_body = [&](size_t lane) {
    size_t k;
    while ((k = cursor.fetch_add(1, std::memory_order_relaxed)) < n) {
      if (ctx != nullptr && ctx->PollNow()) break;
      const size_t i = n - 1 - k;
      if (mine(&shards[i], lane, i)) done[i] = 1;
    }
  };

  const size_t lanes = std::min(pool->threads(), n);
  WaitGroup wg;
  for (size_t lane = 1; lane < lanes; ++lane) {
    pool->Submit(&wg, [&lane_body, lane] { lane_body(lane); });
  }
  // The caller is lane 0; its exception must not skip the wait below.
  std::exception_ptr caller_error;
  try {
    lane_body(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  // Deadline-aware wait: between waits the context is re-polled, so a
  // deadline that expires while workers are deep inside their current
  // subtree still trips promptly and the workers unwind at their next
  // internal check.
  while (!pool->WaitFor(&wg, std::chrono::milliseconds(20))) {
    if (ctx != nullptr) ctx->PollNow();
  }
  if (caller_error) std::rethrow_exception(caller_error);

  for (MineShard& shard : shards) {
    out->Append(std::move(shard.patterns));
    stats->patterns_emitted += shard.stats.patterns_emitted;
    stats->projections_built += shard.stats.projections_built;
    stats->items_scanned += shard.stats.items_scanned;
  }

  size_t completed_top = 0;
  while (completed_top < n && done[n - 1 - completed_top] != 0) {
    ++completed_top;
  }
  if (completed_top == n) return true;
  if (mark_frontier && ctx != nullptr) {
    // The highest uncompleted subtree bounds what the emitted set is
    // complete for: everything strictly above its extension's support.
    ctx->MarkIncomplete(level_supports[n - 1 - completed_top] + 1);
  }
  return false;
}

}  // namespace gogreen::fpm
