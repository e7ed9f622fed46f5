#include "core/disk_recycle.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/recycle_hmine.h"
#include "core/slice_db.h"
#include "util/env.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/retry.h"
#include "util/timer.h"

namespace gogreen::core {

namespace {

using fpm::Rank;

// Transient spill-IO failures are retried under the shared policy
// (util/retry.h): 3 attempts total with ~1/2 ms exponential backoff, the
// same schedule the old local loop used. Only transient failures retry;
// anything else propagates on the first occurrence.
RetryPolicy SpillRetryPolicy() {
  RetryPolicy policy;
  policy.jitter_seed = 0x5917117e5ULL;  // Stable, distinct from pattern_io's.
  return policy;
}

/// Serializes slices to per-rank spill files.
/// Record: u32 pattern_len, pattern ranks, u64 empty_count, u32 num_outs,
/// then per out row u32 len + ranks.
///
/// RAII: destruction closes and removes every partition file this writer
/// created, so spill files cannot leak on any exit path (IO error, governed
/// stop, exception).
class SliceSpillWriter {
 public:
  SliceSpillWriter(std::string dir, std::string stem, size_t num_ranks)
      : dir_(std::move(dir)), stem_(std::move(stem)),
        files_(num_ranks, nullptr) {}

  ~SliceSpillWriter() {
    for (Rank r : used_) {
      if (files_[r] != nullptr) std::fclose(files_[r]);
      std::remove(PathOf(r).c_str());
    }
  }

  SliceSpillWriter(const SliceSpillWriter&) = delete;
  SliceSpillWriter& operator=(const SliceSpillWriter&) = delete;

  std::string PathOf(Rank r) const {
    return dir_ + "/" + stem_ + "." + std::to_string(r) + ".sspill";
  }

  /// Appends one record, retrying transient write failures with backoff.
  /// A failed attempt rewinds the file to the record start before the next
  /// try, so retries overwrite rather than duplicate.
  Status Append(Rank r, const Slice& slice) {
    GOGREEN_DCHECK(r < files_.size());
    if (files_[r] == nullptr) {
      GOGREEN_RETURN_NOT_OK(failpoint::MaybeFail("spill.open"));
      files_[r] = std::fopen(PathOf(r).c_str(), "wb");
      if (files_[r] == nullptr) {
        return Status::IOError("cannot create spill file " + PathOf(r));
      }
      used_.push_back(r);
    }
    return RetryTransient(SpillRetryPolicy(), [this, r, &slice] {
      return AppendOnce(files_[r], r, slice);
    });
  }

  Status Finish() {
    GOGREEN_RETURN_NOT_OK(failpoint::MaybeFail("spill.finish"));
    for (Rank r : used_) {
      if (files_[r] != nullptr) {
        if (std::fclose(files_[r]) != 0) {
          files_[r] = nullptr;
          return Status::IOError("close failed for " + PathOf(r));
        }
        files_[r] = nullptr;
      }
    }
    return Status::OK();
  }

  const std::vector<Rank>& used_ranks() const { return used_; }

 private:
  Status AppendOnce(std::FILE* f, Rank r, const Slice& slice) {
    GOGREEN_RETURN_NOT_OK(failpoint::MaybeFail("spill.write"));
    const long start = std::ftell(f);
    if (start < 0) return Status::IOError("ftell failed for " + PathOf(r));
    const auto write_row = [f](const std::vector<Rank>& row) {
      const uint32_t len = static_cast<uint32_t>(row.size());
      if (std::fwrite(&len, sizeof(len), 1, f) != 1) return false;
      return len == 0 ||
             std::fwrite(row.data(), sizeof(Rank), len, f) == len;
    };
    const uint32_t num_outs = static_cast<uint32_t>(slice.outs.size());
    bool ok = write_row(slice.pattern) &&
              std::fwrite(&slice.empty_count, sizeof(slice.empty_count), 1,
                          f) == 1 &&
              std::fwrite(&num_outs, sizeof(num_outs), 1, f) == 1;
    for (size_t i = 0; ok && i < slice.outs.size(); ++i) {
      ok = write_row(slice.outs[i]);
    }
    if (!ok) {
      std::clearerr(f);
      std::fseek(f, start, SEEK_SET);
      return Status::IOError("short write to " + PathOf(r));
    }
    return Status::OK();
  }

  std::string dir_;
  std::string stem_;
  std::vector<std::FILE*> files_;
  std::vector<Rank> used_;
};

Result<std::vector<Slice>> ReadSliceSpillOnce(const std::string& path) {
  GOGREEN_RETURN_NOT_OK(failpoint::MaybeFail("spill.read"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::vector<Slice>{};
  std::vector<Slice> slices;
  const auto read_row = [f](std::vector<Rank>* row) {
    uint32_t len = 0;
    if (std::fread(&len, sizeof(len), 1, f) != 1) return -1;
    row->resize(len);
    if (len > 0 && std::fread(row->data(), sizeof(Rank), len, f) != len) {
      return -1;
    }
    return static_cast<int>(len);
  };
  while (true) {
    Slice slice;
    const int first = read_row(&slice.pattern);
    if (first < 0) break;  // Clean EOF (or truncation at a boundary).
    uint32_t num_outs = 0;
    if (std::fread(&slice.empty_count, sizeof(slice.empty_count), 1, f) !=
            1 ||
        std::fread(&num_outs, sizeof(num_outs), 1, f) != 1) {
      std::fclose(f);
      return Status::IOError("truncated slice spill " + path);
    }
    slice.outs.resize(num_outs);
    for (uint32_t i = 0; i < num_outs; ++i) {
      if (read_row(&slice.outs[i]) < 0) {
        std::fclose(f);
        return Status::IOError("truncated slice spill " + path);
      }
    }
    slices.push_back(std::move(slice));
  }
  std::fclose(f);
  return slices;
}

/// Reads one spill partition, retrying transient failures whole-call (each
/// attempt reopens and rescans from the start, so retries are idempotent).
Result<std::vector<Slice>> ReadSliceSpill(const std::string& path) {
  return RetryTransientResult<std::vector<Slice>>(
      SpillRetryPolicy(), [&path] { return ReadSliceSpillOnce(path); });
}

struct SliceTotals {
  size_t items = 0;
  size_t out_rows = 0;
};

SliceTotals Totals(const std::vector<Slice>& slices) {
  SliceTotals t;
  for (const Slice& s : slices) {
    t.items += s.pattern.size();
    t.out_rows += s.outs.size();
    for (const auto& o : s.outs) t.items += o.size();
  }
  return t;
}

/// Counts extension supports of a slice set (group-weighted), without the
/// mining context (used to pick partition items before spilling).
std::vector<uint64_t> CountSliceItems(const std::vector<Slice>& slices,
                                      size_t flist_items) {
  std::vector<uint64_t> counts(flist_items, 0);
  for (const Slice& s : slices) {
    const uint64_t w = s.count();
    for (Rank r : s.pattern) counts[r] += w;
    for (const auto& o : s.outs) {
      for (Rank r : o) ++counts[r];
    }
  }
  return counts;
}

/// Mines one partition of slices, spilling to sub-partitions when over the
/// memory budget. Sets `*completed` false iff a governed stop abandoned
/// work; the depth-0 caller owns the frontier bookkeeping for the spill
/// path (the in-memory path marks its own frontier via MineSlicesHM when
/// `prefix_ranks` is empty).
Status MineSlicePartition(std::vector<Slice> slices, const fpm::FList& flist,
                          uint64_t min_support, size_t memory_limit,
                          const std::string& temp_dir, uint64_t depth,
                          std::vector<Rank>* prefix_ranks,
                          fpm::PatternSet* out, fpm::MiningStats* stats,
                          RunContext* ctx, bool* completed) {
  const SliceTotals totals = Totals(slices);
  if (EstimateSliceMineMemory(totals.items, totals.out_rows, slices.size(),
                              flist.size()) <= memory_limit) {
    SliceDb sdb;
    sdb.slices = std::move(slices);
    if (!MineSlicesHM(sdb, flist, min_support, *prefix_ranks, out, stats,
                      ctx)) {
      *completed = false;
    }
    return Status::OK();
  }

  // Over budget: parallel-project every slice into per-rank partitions.
  const std::vector<uint64_t> counts =
      CountSliceItems(slices, flist.size());

  // Unique per process and invocation (see partition.cc).
  static std::atomic<uint64_t> g_spill_id{0};
  const std::string stem = "gogreen_rpart_" + std::to_string(::getpid()) +
                           "_" + std::to_string(g_spill_id.fetch_add(1)) +
                           "_d" + std::to_string(depth);
  SliceSpillWriter writer(temp_dir, stem, flist.size());
  for (const Slice& s : slices) {
    // The ranks this slice touches.
    std::vector<Rank> touched = s.pattern;
    for (const auto& o : s.outs) {
      touched.insert(touched.end(), o.begin(), o.end());
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    const std::vector<Slice> one{s};
    for (Rank r : touched) {
      if (counts[r] < min_support) continue;
      std::vector<Slice> projected = ProjectSlices(one, r);
      if (projected.empty()) {
        // Still append nothing; the partition's singleton pattern is
        // emitted from `counts` below, not from the spill contents.
        continue;
      }
      GOGREEN_RETURN_NOT_OK(writer.Append(r, projected[0]));
    }
  }
  GOGREEN_RETURN_NOT_OK(writer.Finish());
  slices.clear();
  slices.shrink_to_fit();

  // Partitions are walked most-frequent-first, as MineFirstLevel claims
  // subtrees: when a governed stop abandons the walk, the contiguously-
  // completed head covers every support strictly above the first
  // unfinished partition's, which is a sound frontier.
  std::vector<Rank> order;
  for (Rank r = static_cast<Rank>(flist.size()); r-- > 0;) {
    if (counts[r] >= min_support) order.push_back(r);
  }

  size_t processed = 0;
  bool stopped = false;
  for (const Rank r : order) {
    if (ctx != nullptr && ctx->PollNow()) {
      stopped = true;
      break;
    }
    prefix_ranks->push_back(r);
    std::vector<fpm::ItemId> items = flist.DecodeRanks(*prefix_ranks);
    std::sort(items.begin(), items.end());
    out->Add(std::move(items), counts[r]);

    auto loaded = ReadSliceSpill(writer.PathOf(r));
    GOGREEN_RETURN_NOT_OK(loaded.status());  // Writer dtor cleans up.
    bool sub_completed = true;
    if (!loaded->empty()) {
      const Status st = MineSlicePartition(
          std::move(loaded).value(), flist, min_support, memory_limit,
          temp_dir, depth + 1, prefix_ranks, out, stats, ctx,
          &sub_completed);
      GOGREEN_RETURN_NOT_OK(st);
    }
    prefix_ranks->pop_back();
    if (!sub_completed) {
      // A nested stop leaves this partition unfinished; the stop reason is
      // sticky, so later partitions would be abandoned too — break now to
      // keep the completed head contiguous.
      stopped = true;
      break;
    }
    ++processed;
  }

  if (stopped) {
    *completed = false;
    if (depth == 0 && processed < order.size()) {
      ctx->MarkIncomplete(counts[order[processed]] + 1);
    }
  }
  return Status::OK();
}

}  // namespace

size_t EstimateSliceMineMemory(size_t total_items, size_t total_out_rows,
                               size_t num_slices, size_t flist_items) {
  // Slice vectors (ranks) + per-out-row vector headers + per-slice
  // bookkeeping + projection reference lists (up to one tail ref per out
  // row at the deepest level) + header scratch.
  return total_items * sizeof(Rank) +
         total_out_rows * (sizeof(std::vector<Rank>) + 2 * sizeof(uint32_t)) +
         num_slices * 64 +
         flist_items * (sizeof(uint64_t) + sizeof(size_t));
}

Result<fpm::PatternSet> MineRecycleHMMemoryLimited(
    const CompressedDb& cdb, uint64_t min_support, size_t memory_limit,
    const std::string& temp_dir, fpm::MiningStats* stats, RunContext* ctx) {
  if (min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  fpm::MiningStats local;
  if (stats == nullptr) stats = &local;
  stats->Reset();
  Timer timer;
  fpm::PatternSet out;

  const fpm::FList flist = fpm::FList::FromCounts(
      cdb.CountItemSupports(cdb.ItemUniverseSize()), min_support);
  if (!flist.empty()) {
    // All spill files for this run live in a run-private directory that the
    // ScopedTempDir removes on every exit path.
    Result<ScopedTempDir> scratch =
        ScopedTempDir::Create(temp_dir, "gogreen_recycle_");
    GOGREEN_RETURN_NOT_OK(scratch.status());

    SliceDb sdb = SliceDb::Build(cdb, flist);
    std::vector<Rank> prefix;
    bool completed = true;
    GOGREEN_RETURN_NOT_OK(MineSlicePartition(
        std::move(sdb.slices), flist, min_support, memory_limit,
        scratch->path(), 0, &prefix, &out, stats, ctx, &completed));
  }

  stats->patterns_emitted = out.size();
  stats->elapsed_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace gogreen::core
