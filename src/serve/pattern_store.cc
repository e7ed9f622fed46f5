#include "serve/pattern_store.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>
#include <utility>

#include "fpm/pattern.h"
#include "fpm/pattern_io.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace gogreen::serve {

namespace {

/// Gauge mirroring the ledger so `--metrics-json` shows the store load.
void RecordStoreBytes(size_t bytes) {
  static obs::Gauge* gauge =
      obs::MetricRegistry::Global().GetGauge("serve.store_bytes");
  gauge->Set(static_cast<int64_t>(bytes));
}

void RecordEviction(bool whole_entry) {
  static obs::Counter* entries =
      obs::MetricRegistry::Global().GetCounter("serve.evictions");
  static obs::Counter* images =
      obs::MetricRegistry::Global().GetCounter("serve.image_evictions");
  (whole_entry ? entries : images)->Add(1);
}

void RecordShardContention() {
  static obs::Counter* counter =
      obs::MetricRegistry::Global().GetCounter("serve.shard_contention");
  counter->Add(1);
}

/// Filename for one persisted entry: a sanitized dataset id and the support
/// stay readable; the free-form parts (full id + fingerprint) are folded
/// into a hash for uniqueness. The authoritative key travels inside the
/// file (header.source), so the name only needs to be unique and stable.
std::string EntryFileName(const StoreKey& key) {
  std::string readable = key.dataset_id;
  for (char& c : readable) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (!safe) c = '_';
  }
  const size_t hash = std::hash<std::string>{}(
      key.dataset_id + "\n" + key.constraint_fingerprint);
  return readable + "-" + std::to_string(key.min_support) + "-" +
         std::to_string(hash) + ".gpat";
}

/// The key is serialized into the header's free-form source field as
/// "dataset\nfingerprint" (the fingerprint never contains a newline; it is
/// built from single-line constraint descriptions).
std::string EncodeSource(const StoreKey& key) {
  return key.dataset_id + "\n" + key.constraint_fingerprint;
}

bool DecodeSource(const std::string& source, uint64_t min_support,
                  StoreKey* key) {
  const size_t newline = source.find('\n');
  if (newline == std::string::npos) return false;
  key->dataset_id = source.substr(0, newline);
  key->constraint_fingerprint = source.substr(newline + 1);
  key->min_support = min_support;
  return !key->dataset_id.empty() && min_support > 0;
}

}  // namespace

std::string StoreKey::ToString() const {
  std::string s = dataset_id + "@" + std::to_string(min_support);
  if (!constraint_fingerprint.empty()) s += "[" + constraint_fingerprint + "]";
  return s;
}

size_t PatternSetCost(const fpm::PatternSet& fp) {
  size_t bytes = sizeof(fpm::PatternSet);
  for (const fpm::Pattern& p : fp) {
    bytes += sizeof(fpm::Pattern) + p.items.capacity() * sizeof(fpm::ItemId);
  }
  return bytes;
}

PatternStore::PatternStore() : PatternStore(Options()) {}

PatternStore::PatternStore(Options options) : budget_(options.byte_budget) {
  shards_.reserve(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PatternStore::Shard& PatternStore::ShardOf(const StoreKey& key) const {
  const size_t hash = std::hash<std::string>{}(
      key.dataset_id + "\n" + key.constraint_fingerprint + "\n" +
      std::to_string(key.min_support));
  return *shards_[hash % shards_.size()];
}

PatternStore::ShardLock::ShardLock(const Shard& shard) : shard_(shard) {
  if (!shard_.mu.try_lock()) {
    RecordShardContention();
    shard_.mu.lock();
  }
}

PatternStore::ShardLock::~ShardLock() { shard_.mu.unlock(); }

PatternStore::EntryList::iterator PatternStore::FindInShard(
    Shard& shard, const StoreKey& key) {
  for (auto it = shard.entries.begin(); it != shard.entries.end(); ++it) {
    if (it->key == key) return it;
  }
  return shard.entries.end();
}

void PatternStore::TouchLocked(Shard& shard, EntryList::iterator it) {
  it->stamp = NextStamp();
  shard.entries.splice(shard.entries.begin(), shard.entries, it);
}

void PatternStore::DropEntryLocked(Shard& shard, EntryList::iterator it) {
  bytes_.fetch_sub(it->pattern_bytes + it->cdb_bytes,
                   std::memory_order_relaxed);
  shard.entries.erase(it);
}

bool PatternStore::EvictOneImage(const StoreKey* keep) {
  while (true) {
    // Phase 1: find the globally least-recently-used entry holding an
    // image, locking one shard at a time. Within a shard the list is LRU
    // ordered, so the tail-most image is that shard's minimum.
    bool found = false;
    uint64_t best = std::numeric_limits<uint64_t>::max();
    size_t victim_shard = 0;
    StoreKey victim_key;
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& scan = *shards_[i];
      ShardLock lock(scan);
      for (auto it = scan.entries.rbegin(); it != scan.entries.rend(); ++it) {
        if (it->cdb == nullptr) continue;
        if (keep != nullptr && it->key == *keep) continue;
        if (it->stamp < best) {
          best = it->stamp;
          victim_shard = i;
          victim_key = it->key;
          found = true;
        }
        break;
      }
    }
    if (!found) return false;
    // Phase 2: re-lock the winner and evict, unless a concurrent op raced
    // the image away — then rescan.
    Shard& shard = *shards_[victim_shard];
    ShardLock lock(shard);
    auto it = FindInShard(shard, victim_key);
    if (it == shard.entries.end() || it->cdb == nullptr) continue;
    bytes_.fetch_sub(it->cdb_bytes, std::memory_order_relaxed);
    it->cdb.reset();
    it->cdb_bytes = 0;
    image_evictions_.fetch_add(1, std::memory_order_relaxed);
    RecordEviction(/*whole_entry=*/false);
    return true;
  }
}

bool PatternStore::EvictOneEntry(const StoreKey* keep) {
  while (true) {
    bool found = false;
    uint64_t best = std::numeric_limits<uint64_t>::max();
    size_t victim_shard = 0;
    StoreKey victim_key;
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& scan = *shards_[i];
      ShardLock lock(scan);
      for (auto it = scan.entries.rbegin(); it != scan.entries.rend(); ++it) {
        if (keep != nullptr && it->key == *keep) continue;
        if (it->stamp < best) {
          best = it->stamp;
          victim_shard = i;
          victim_key = it->key;
          found = true;
        }
        break;
      }
    }
    if (!found) return false;
    Shard& shard = *shards_[victim_shard];
    ShardLock lock(shard);
    auto it = FindInShard(shard, victim_key);
    if (it == shard.entries.end()) continue;  // Raced away; rescan.
    evictions_.fetch_add(1, std::memory_order_relaxed);
    RecordEviction(/*whole_entry=*/true);
    DropEntryLocked(shard, it);
    return true;
  }
}

bool PatternStore::ReserveBytes(size_t cost, const StoreKey* keep) {
  while (true) {
    size_t current = bytes_.load(std::memory_order_relaxed);
    if (current + cost <= budget_.load(std::memory_order_relaxed)) {
      if (bytes_.compare_exchange_weak(current, current + cost,
                                       std::memory_order_relaxed)) {
        return true;
      }
      continue;  // Lost the CAS; re-read and retry.
    }
    // Over budget: evict the globally-LRU victim — memoized images first
    // (cheap to rebuild), then whole entries.
    if (EvictOneImage(keep)) continue;
    if (EvictOneEntry(keep)) continue;
    return false;  // Nothing evictable remains.
  }
}

bool PatternStore::Put(const StoreKey& key, fpm::PatternSet patterns,
                       uint64_t num_transactions) {
  const size_t cost = PatternSetCost(patterns);
  Shard& shard = ShardOf(key);
  {
    ShardLock lock(shard);
    auto existing = FindInShard(shard, key);
    if (existing != shard.entries.end()) DropEntryLocked(shard, existing);
  }
  if (cost > byte_budget()) {
    RecordStoreBytes(bytes_in_use());
    return false;
  }
  if (!ReserveBytes(cost, /*keep=*/nullptr)) {
    RecordStoreBytes(bytes_in_use());
    return false;
  }
  Entry entry;
  entry.key = key;
  entry.patterns =
      std::make_shared<const fpm::PatternSet>(std::move(patterns));
  entry.num_transactions = num_transactions;
  entry.pattern_bytes = cost;
  entry.stamp = NextStamp();
  {
    ShardLock lock(shard);
    // A concurrent Put of the same key may have raced in after the drop
    // above; last writer wins.
    auto existing = FindInShard(shard, key);
    if (existing != shard.entries.end()) DropEntryLocked(shard, existing);
    shard.entries.push_front(std::move(entry));
  }
  RecordStoreBytes(bytes_in_use());
  return true;
}

void PatternStore::PutCompressed(
    const StoreKey& key, std::shared_ptr<const core::CompressedDb> cdb) {
  if (cdb == nullptr) return;
  const size_t cost = cdb->MemoryUsage();
  Shard& shard = ShardOf(key);
  {
    ShardLock lock(shard);
    auto it = FindInShard(shard, key);
    if (it == shard.entries.end()) return;
    if (it->cdb != nullptr) {
      bytes_.fetch_sub(it->cdb_bytes, std::memory_order_relaxed);
      it->cdb.reset();
      it->cdb_bytes = 0;
    }
    // The image must fit next to its own pattern set; if evicting *other*
    // entries cannot make room, skip the memoization.
    if (it->pattern_bytes + cost > byte_budget()) return;
  }
  if (!ReserveBytes(cost, /*keep=*/&key)) return;
  {
    ShardLock lock(shard);
    auto it = FindInShard(shard, key);
    if (it == shard.entries.end() || it->cdb != nullptr) {
      // The entry was evicted (or another thread memoized first) while we
      // held the reservation; give the bytes back.
      bytes_.fetch_sub(cost, std::memory_order_relaxed);
      return;
    }
    it->cdb = std::move(cdb);
    it->cdb_bytes = cost;
    TouchLocked(shard, it);
  }
  RecordStoreBytes(bytes_in_use());
}

std::shared_ptr<const fpm::PatternSet> PatternStore::Get(const StoreKey& key) {
  Shard& shard = ShardOf(key);
  ShardLock lock(shard);
  auto it = FindInShard(shard, key);
  if (it == shard.entries.end()) return nullptr;
  TouchLocked(shard, it);
  return it->patterns;
}

std::shared_ptr<const core::CompressedDb> PatternStore::GetCompressed(
    const StoreKey& key) {
  Shard& shard = ShardOf(key);
  ShardLock lock(shard);
  auto it = FindInShard(shard, key);
  if (it == shard.entries.end()) return nullptr;
  TouchLocked(shard, it);
  return it->cdb;
}

uint64_t PatternStore::NumTransactionsOf(const StoreKey& key) const {
  Shard& shard = ShardOf(key);
  ShardLock lock(shard);
  auto it = FindInShard(shard, key);
  return it == shard.entries.end() ? 0 : it->num_transactions;
}

std::vector<core::SeedCandidate> PatternStore::Candidates(
    const std::string& dataset_id, const std::string& fingerprint) const {
  std::vector<core::SeedCandidate> candidates;
  for (const auto& ptr : shards_) {
    const Shard& shard = *ptr;
    ShardLock lock(shard);
    for (const Entry& entry : shard.entries) {
      if (entry.key.dataset_id != dataset_id ||
          entry.key.constraint_fingerprint != fingerprint) {
        continue;
      }
      core::SeedCandidate cand;
      cand.min_support = entry.key.min_support;
      cand.has_compressed = entry.cdb != nullptr;
      cand.last_used = entry.stamp;  // Global recency: bigger = fresher.
      cand.tag = static_cast<size_t>(entry.key.min_support);
      candidates.push_back(cand);
    }
  }
  return candidates;
}

void PatternStore::Clear() {
  for (const auto& ptr : shards_) {
    Shard& shard = *ptr;
    ShardLock lock(shard);
    while (!shard.entries.empty()) {
      DropEntryLocked(shard, shard.entries.begin());
    }
  }
  RecordStoreBytes(bytes_in_use());
}

StoreStats PatternStore::stats() const {
  StoreStats stats;
  for (const auto& ptr : shards_) {
    const Shard& shard = *ptr;
    ShardLock lock(shard);
    stats.entries += shard.entries.size();
    for (const Entry& entry : shard.entries) {
      if (entry.cdb != nullptr) ++stats.compressed_images;
    }
  }
  stats.bytes_in_use = bytes_in_use();
  stats.byte_budget = byte_budget();
  const Evictions evicted = evictions();
  stats.evictions = evicted.entries;
  stats.image_evictions = evicted.images;
  return stats;
}

size_t PatternStore::bytes_in_use() const {
  return bytes_.load(std::memory_order_relaxed);
}

void PatternStore::SetByteBudget(size_t byte_budget) {
  budget_.store(byte_budget, std::memory_order_relaxed);
  // Shrink: evict (images first, then whole entries) until the ledger fits
  // the new budget. Nothing-evictable only happens once the store is
  // empty, at which point the ledger is 0 <= any budget.
  while (bytes_in_use() > byte_budget) {
    if (EvictOneImage(/*keep=*/nullptr)) continue;
    if (!EvictOneEntry(/*keep=*/nullptr)) break;
  }
  RecordStoreBytes(bytes_in_use());
}

Status PatternStore::SaveTo(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create store directory " + dir + ": " +
                           ec.message());
  }
  // Snapshot the entries under the shard locks (shared_ptr copies are
  // cheap), then write without holding any lock across file IO.
  std::vector<Entry> snapshot;
  for (const auto& ptr : shards_) {
    const Shard& shard = *ptr;
    ShardLock lock(shard);
    for (const Entry& entry : shard.entries) snapshot.push_back(entry);
  }
  for (const Entry& entry : snapshot) {
    fpm::PatternSetHeader header;
    header.min_support = entry.key.min_support;
    header.num_transactions = entry.num_transactions;
    header.source = EncodeSource(entry.key);
    const std::string path = dir + "/" + EntryFileName(entry.key);
    GOGREEN_RETURN_NOT_OK(
        fpm::WritePatternFile(*entry.patterns, header, path).status());
  }
  return Status::OK();
}

Status PatternStore::LoadFrom(const std::string& dir, size_t* skipped) {
  if (skipped != nullptr) *skipped = 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot read store directory " + dir + ": " +
                           ec.message());
  }
  for (const auto& dirent : it) {
    if (!dirent.is_regular_file() ||
        dirent.path().extension() != ".gpat") {
      continue;
    }
    auto loaded = fpm::ReadPatternFile(dirent.path().string());
    StoreKey key;
    if (!loaded.ok() ||
        !DecodeSource(loaded->second.source, loaded->second.min_support,
                      &key)) {
      GOGREEN_LOG(Warning) << "skipping unreadable pattern file "
                           << dirent.path().string()
                           << (loaded.ok()
                                   ? ""
                                   : ": " + loaded.status().ToString());
      if (skipped != nullptr) ++*skipped;
      continue;
    }
    Put(key, std::move(loaded->first), loaded->second.num_transactions);
  }
  return Status::OK();
}

}  // namespace gogreen::serve
