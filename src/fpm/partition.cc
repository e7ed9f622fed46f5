#include "fpm/partition.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>

#include "fpm/hmine.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gogreen::fpm {

size_t EstimateHMineMemory(size_t total_items, size_t num_rows,
                           size_t flist_items) {
  // CSR rows: rank per occurrence + one offset per row; suffix queues hold
  // up to one (tid, pos) pair per occurrence; header scratch is two arrays
  // over the F-list.
  return total_items * (sizeof(Rank) + 2 * sizeof(uint32_t)) +
         num_rows * sizeof(uint64_t) +
         flist_items * (sizeof(uint64_t) + sizeof(size_t));
}

SpillWriter::SpillWriter(std::string dir, std::string stem, size_t num_ranks)
    : dir_(std::move(dir)), stem_(std::move(stem)),
      files_(num_ranks, nullptr) {}

std::string SpillWriter::PathOf(Rank r) const {
  return dir_ + "/" + stem_ + "." + std::to_string(r) + ".spill";
}

Status SpillWriter::Append(Rank r, std::span<const Rank> row) {
  GOGREEN_DCHECK(r < files_.size());
  if (files_[r] == nullptr) {
    files_[r] = std::fopen(PathOf(r).c_str(), "wb");
    if (files_[r] == nullptr) {
      return Status::IOError("cannot create spill file " + PathOf(r));
    }
    used_.push_back(r);
  }
  const uint32_t len = static_cast<uint32_t>(row.size());
  if (std::fwrite(&len, sizeof(len), 1, files_[r]) != 1 ||
      (len > 0 &&
       std::fwrite(row.data(), sizeof(Rank), len, files_[r]) != len)) {
    return Status::IOError("short write to spill file " + PathOf(r));
  }
  return Status::OK();
}

Status SpillWriter::Finish() {
  for (Rank r : used_) {
    if (files_[r] != nullptr) {
      if (std::fclose(files_[r]) != 0) {
        files_[r] = nullptr;
        return Status::IOError("close failed for spill file " + PathOf(r));
      }
      files_[r] = nullptr;
    }
  }
  return Status::OK();
}

void SpillWriter::Cleanup() {
  for (Rank r : used_) {
    if (files_[r] != nullptr) {
      std::fclose(files_[r]);
      files_[r] = nullptr;
    }
    std::remove(PathOf(r).c_str());
  }
  used_.clear();
}

Result<std::vector<std::vector<Rank>>> ReadSpill(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::vector<std::vector<Rank>>{};
  std::vector<std::vector<Rank>> rows;
  uint32_t len = 0;
  while (std::fread(&len, sizeof(len), 1, f) == 1) {
    std::vector<Rank> row(len);
    if (len > 0 && std::fread(row.data(), sizeof(Rank), len, f) != len) {
      std::fclose(f);
      return Status::IOError("truncated spill file " + path);
    }
    rows.push_back(std::move(row));
  }
  std::fclose(f);
  return rows;
}

namespace {

/// Mines the partition of rows whose every pattern extends `prefix_ranks`;
/// recursively re-partitions when over budget. `rows` are rank-ascending
/// suffixes. Consumes `rows`.
Status MinePartition(std::vector<std::vector<Rank>> rows, const FList& flist,
                     uint64_t min_support, size_t memory_limit,
                     const std::string& temp_dir, uint64_t depth,
                     std::vector<Rank>* prefix_ranks, PatternSet* out,
                     MiningStats* stats) {
  size_t total_items = 0;
  for (const auto& row : rows) total_items += row.size();
  if (EstimateHMineMemory(total_items, rows.size(), flist.size()) <=
      memory_limit) {
    MineRankedRowsHM(rows, flist, min_support, *prefix_ranks, out, stats);
    return Status::OK();
  }

  // Over budget: count local frequencies, then spill per-rank projections
  // (parallel projection) and recurse partition by partition.
  std::vector<uint64_t> counts(flist.size(), 0);
  for (const auto& row : rows) {
    for (Rank r : row) ++counts[r];
  }

  // Unique per process and invocation: concurrent miners (other processes
  // or recursion siblings) must never share spill files.
  static std::atomic<uint64_t> g_spill_id{0};
  const std::string stem = "gogreen_part_" + std::to_string(::getpid()) +
                           "_" + std::to_string(g_spill_id.fetch_add(1)) +
                           "_d" + std::to_string(depth);
  SpillWriter writer(temp_dir, stem, flist.size());
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (counts[row[i]] < min_support) continue;
      // The suffix may contain locally infrequent ranks; the recursive call
      // re-counts, so leaving them is harmless — but dropping them here
      // shrinks the partitions.
      std::vector<Rank> suffix;
      for (size_t j = i + 1; j < row.size(); ++j) {
        if (counts[row[j]] >= min_support) suffix.push_back(row[j]);
      }
      GOGREEN_RETURN_NOT_OK(writer.Append(row[i], suffix));
    }
  }
  GOGREEN_RETURN_NOT_OK(writer.Finish());
  rows.clear();
  rows.shrink_to_fit();

  std::vector<Rank> used = writer.used_ranks();
  std::sort(used.begin(), used.end());
  for (Rank r : used) {
    if (counts[r] < min_support) continue;
    prefix_ranks->push_back(r);
    // Emit the partition's own pattern, then mine inside it.
    std::vector<ItemId> items = flist.DecodeRanks(*prefix_ranks);
    std::sort(items.begin(), items.end());
    out->Add(std::move(items), counts[r]);

    auto loaded = ReadSpill(writer.PathOf(r));
    GOGREEN_RETURN_NOT_OK(loaded.status());  // Writer dtor cleans up.
    GOGREEN_RETURN_NOT_OK(MinePartition(
        std::move(loaded).value(), flist, min_support, memory_limit, temp_dir,
        depth + 1, prefix_ranks, out, stats));
    prefix_ranks->pop_back();
  }
  return Status::OK();
}

}  // namespace

Result<PatternSet> MineHMineMemoryLimited(const TransactionDb& db,
                                          uint64_t min_support,
                                          size_t memory_limit,
                                          const std::string& temp_dir,
                                          MiningStats* stats) {
  if (min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  MiningStats local;
  if (stats == nullptr) stats = &local;
  stats->Reset();
  Timer timer;
  PatternSet out;

  const FList flist = FList::Build(db, min_support);
  if (!flist.empty()) {
    // The initial rows are built once; the memory model decides whether the
    // in-memory core can take them whole.
    std::vector<std::vector<Rank>> rows;
    rows.reserve(db.NumTransactions());
    for (Tid t = 0; t < db.NumTransactions(); ++t) {
      std::vector<Rank> enc = flist.EncodeTransaction(db.Transaction(t));
      if (!enc.empty()) rows.push_back(std::move(enc));
    }
    std::vector<Rank> prefix;
    GOGREEN_RETURN_NOT_OK(MinePartition(std::move(rows), flist, min_support,
                                        memory_limit, temp_dir, 0, &prefix,
                                        &out, stats));
  }

  stats->patterns_emitted = out.size();
  stats->elapsed_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace gogreen::fpm
