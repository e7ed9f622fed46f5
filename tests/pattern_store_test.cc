// Unit tests for serve::PatternStore: the byte budget is a hard ceiling
// that is never exceeded at any point in an insertion sequence, eviction is
// least-recently-used with memoized compressed images dropped before whole
// pattern sets, oversized entries are rejected outright, and persistence
// round-trips through crash-safe pattern files (corrupted files are skipped,
// not fatal).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/compressor.h"
#include "core/seed_selection.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "serve/pattern_store.h"
#include "tests/test_util.h"

namespace gogreen {
namespace {

using fpm::ItemId;
using fpm::PatternSet;
using serve::PatternSetCost;
using serve::PatternStore;
using serve::StoreKey;
using serve::StoreStats;
using testutil::MinePatterns;

StoreKey Key(uint64_t min_support, const std::string& dataset = "db",
             const std::string& fingerprint = "") {
  StoreKey key;
  key.dataset_id = dataset;
  key.constraint_fingerprint = fingerprint;
  key.min_support = min_support;
  return key;
}

/// A pattern set with `n` single-item patterns — cost grows with `n`.
PatternSet SetOfSize(size_t n, uint64_t support = 5) {
  PatternSet fp;
  for (size_t i = 0; i < n; ++i) {
    fp.Add({static_cast<ItemId>(i)}, support);
  }
  return fp;
}

/// A scratch directory under the test tmpdir, wiped on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("gogreen_store_test_" + name +
               std::to_string(static_cast<unsigned>(::getpid())))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(PatternStoreTest, PutGetRoundTrip) {
  PatternStore store;
  PatternSet fp = SetOfSize(3);
  ASSERT_TRUE(store.Put(Key(10), fp, 100));
  auto got = store.Get(Key(10));
  ASSERT_NE(got, nullptr);
  PatternSet copy = *got;
  EXPECT_TRUE(PatternSet::Equal(&fp, &copy));
  EXPECT_EQ(store.NumTransactionsOf(Key(10)), 100u);
  EXPECT_EQ(store.Get(Key(11)), nullptr);
  EXPECT_EQ(store.NumTransactionsOf(Key(11)), 0u);
}

TEST(PatternStoreTest, KeysDistinguishDatasetAndFingerprint) {
  PatternStore store;
  ASSERT_TRUE(store.Put(Key(10, "a"), SetOfSize(1), 1));
  ASSERT_TRUE(store.Put(Key(10, "b"), SetOfSize(2), 2));
  ASSERT_TRUE(store.Put(Key(10, "a", "len>=2"), SetOfSize(3), 3));
  EXPECT_EQ(store.Get(Key(10, "a"))->size(), 1u);
  EXPECT_EQ(store.Get(Key(10, "b"))->size(), 2u);
  EXPECT_EQ(store.Get(Key(10, "a", "len>=2"))->size(), 3u);
}

TEST(PatternStoreTest, PutReplacesExistingEntry) {
  PatternStore store;
  ASSERT_TRUE(store.Put(Key(10), SetOfSize(2), 50));
  ASSERT_TRUE(store.Put(Key(10), SetOfSize(7), 60));
  EXPECT_EQ(store.stats().entries, 1u);
  EXPECT_EQ(store.Get(Key(10))->size(), 7u);
  EXPECT_EQ(store.NumTransactionsOf(Key(10)), 60u);
  // The accounted bytes reflect only the replacement.
  EXPECT_EQ(store.bytes_in_use(), PatternSetCost(SetOfSize(7)));
}

TEST(PatternStoreTest, BudgetIsNeverExceededDuringInsertSequence) {
  PatternStore::Options options;
  options.byte_budget = 4 * PatternSetCost(SetOfSize(8));
  PatternStore store(options);
  // Insert far more than fits; after every single operation the accounted
  // bytes must stay at or under the ceiling.
  for (uint64_t s = 1; s <= 64; ++s) {
    store.Put(Key(s * 10), SetOfSize(1 + (s % 8)), 100);
    ASSERT_LE(store.bytes_in_use(), store.byte_budget())
        << "budget exceeded after insert " << s;
  }
  const StoreStats stats = store.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GE(stats.entries, 1u);
  EXPECT_LE(stats.bytes_in_use, stats.byte_budget);
}

TEST(PatternStoreTest, EvictionIsLeastRecentlyUsedFirst) {
  PatternStore::Options options;
  options.byte_budget = 3 * PatternSetCost(SetOfSize(4));
  PatternStore store(options);
  ASSERT_TRUE(store.Put(Key(10), SetOfSize(4), 1));
  ASSERT_TRUE(store.Put(Key(20), SetOfSize(4), 1));
  ASSERT_TRUE(store.Put(Key(30), SetOfSize(4), 1));
  // Touch the oldest so the middle entry becomes least-recently-used.
  ASSERT_NE(store.Get(Key(10)), nullptr);
  ASSERT_TRUE(store.Put(Key(40), SetOfSize(4), 1));
  EXPECT_EQ(store.Get(Key(20)), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(store.Get(Key(10)), nullptr);
  EXPECT_NE(store.Get(Key(30)), nullptr);
  EXPECT_NE(store.Get(Key(40)), nullptr);
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(PatternStoreTest, OversizedEntryIsRejectedWithoutDisturbingStore) {
  PatternStore::Options options;
  options.byte_budget = PatternSetCost(SetOfSize(4));
  PatternStore store(options);
  ASSERT_TRUE(store.Put(Key(10), SetOfSize(2), 1));
  const size_t before = store.bytes_in_use();
  // This set alone exceeds the whole budget: rejected, nothing evicted.
  EXPECT_FALSE(store.Put(Key(20), SetOfSize(64), 1));
  EXPECT_EQ(store.bytes_in_use(), before);
  EXPECT_NE(store.Get(Key(10)), nullptr);
  EXPECT_EQ(store.Get(Key(20)), nullptr);
}

TEST(PatternStoreTest, EvictionDropsReferenceNotReader) {
  PatternStore::Options options;
  options.byte_budget = PatternSetCost(SetOfSize(6));
  PatternStore store(options);
  ASSERT_TRUE(store.Put(Key(10), SetOfSize(6), 1));
  auto held = store.Get(Key(10));
  ASSERT_NE(held, nullptr);
  ASSERT_TRUE(store.Put(Key(20), SetOfSize(6), 1));  // Evicts Key(10).
  EXPECT_EQ(store.Get(Key(10)), nullptr);
  // The reader's shared_ptr stays valid after eviction.
  EXPECT_EQ(held->size(), 6u);
}

TEST(PatternStoreTest, CompressedImagesEvictBeforePatternSets) {
  const fpm::TransactionDb db = testutil::PaperExampleDb();
  auto mined = MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kApriori), db, 3);
  ASSERT_TRUE(mined.ok());
  auto compressed = core::CompressDatabase(
      db, mined.value(),
      {core::CompressionStrategy::kMcp, core::MatcherKind::kAuto});
  ASSERT_TRUE(compressed.ok());
  auto cdb = std::make_shared<const core::CompressedDb>(
      std::move(compressed).value());

  const size_t image_cost = cdb->MemoryUsage();
  const size_t set_cost = PatternSetCost(SetOfSize(1));
  // Precondition of the deterministic scenario below: freeing the image
  // makes room for one more pattern set.
  ASSERT_GE(image_cost, set_cost);

  PatternStore::Options options;
  options.byte_budget = 3 * set_cost + image_cost;
  PatternStore store(options);
  ASSERT_TRUE(store.Put(Key(3), SetOfSize(1), db.NumTransactions()));
  store.PutCompressed(Key(3), cdb);
  ASSERT_EQ(store.stats().compressed_images, 1u);
  ASSERT_TRUE(store.Put(Key(5), SetOfSize(1), db.NumTransactions()));
  ASSERT_TRUE(store.Put(Key(7), SetOfSize(1), db.NumTransactions()));
  ASSERT_LE(store.bytes_in_use(), store.byte_budget());

  // The store is full. One more set: the image of Key(3) must be dropped
  // to make room — and no whole pattern set with it.
  ASSERT_TRUE(store.Put(Key(9), SetOfSize(1), db.NumTransactions()));
  ASSERT_LE(store.bytes_in_use(), store.byte_budget());
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.compressed_images, 0u);
  EXPECT_EQ(stats.image_evictions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_NE(store.Get(Key(3)), nullptr)
      << "pattern set must survive while its image is evicted";
}

TEST(PatternStoreTest, PutCompressedOnMissingKeyIsNoOp) {
  PatternStore store;
  store.PutCompressed(Key(10), nullptr);
  store.PutCompressed(Key(10),
                      std::make_shared<const core::CompressedDb>());
  EXPECT_EQ(store.stats().compressed_images, 0u);
  EXPECT_EQ(store.bytes_in_use(), 0u);
}

TEST(PatternStoreTest, CandidatesReportSupportsAndImages) {
  PatternStore store;
  ASSERT_TRUE(store.Put(Key(10), SetOfSize(2), 1));
  ASSERT_TRUE(store.Put(Key(20), SetOfSize(2), 1));
  ASSERT_TRUE(store.Put(Key(20, "db", "len>=2"), SetOfSize(1), 1));
  ASSERT_TRUE(store.Put(Key(20, "other"), SetOfSize(1), 1));
  auto candidates = store.Candidates("db", "");
  ASSERT_EQ(candidates.size(), 2u);  // Fingerprinted/foreign keys excluded.
  // Tags carry the support so SelectSeed's choice maps back to a key.
  for (const core::SeedCandidate& cand : candidates) {
    EXPECT_EQ(cand.tag, static_cast<size_t>(cand.min_support));
    EXPECT_TRUE(cand.min_support == 10 || cand.min_support == 20);
  }
  const core::SeedChoice choice = core::SelectSeed(candidates, 15);
  EXPECT_EQ(choice.route, core::SeedRoute::kFilterDown);
  EXPECT_EQ(choice.min_support, 10u);
}

TEST(PatternStoreTest, ClearReleasesEverything) {
  PatternStore store;
  ASSERT_TRUE(store.Put(Key(10), SetOfSize(5), 1));
  ASSERT_TRUE(store.Put(Key(20), SetOfSize(5), 1));
  store.Clear();
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.bytes_in_use(), 0u);
  EXPECT_EQ(store.Get(Key(10)), nullptr);
}

TEST(PatternStoreTest, PersistenceRoundTrip) {
  ScratchDir dir("roundtrip");
  PatternSet fp10 = SetOfSize(4, 10);
  PatternSet fp20 = SetOfSize(2, 20);
  {
    PatternStore store;
    ASSERT_TRUE(store.Put(Key(10, "weather-sub"), fp10, 500));
    ASSERT_TRUE(store.Put(Key(20, "weather-sub", "len>=2"), fp20, 500));
    ASSERT_TRUE(store.SaveTo(dir.str()).ok());
  }
  PatternStore reloaded;
  size_t skipped = 99;
  ASSERT_TRUE(reloaded.LoadFrom(dir.str(), &skipped).ok());
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(reloaded.stats().entries, 2u);
  auto got = reloaded.Get(Key(10, "weather-sub"));
  ASSERT_NE(got, nullptr);
  PatternSet copy = *got;
  EXPECT_TRUE(PatternSet::Equal(&fp10, &copy));
  EXPECT_EQ(reloaded.NumTransactionsOf(Key(10, "weather-sub")), 500u);
  // The fingerprinted entry kept its fingerprint through the file format.
  auto constrained = reloaded.Get(Key(20, "weather-sub", "len>=2"));
  ASSERT_NE(constrained, nullptr);
  PatternSet copy20 = *constrained;
  EXPECT_TRUE(PatternSet::Equal(&fp20, &copy20));
}

TEST(PatternStoreTest, DatasetIdsWithPathCharactersPersist) {
  ScratchDir dir("pathchars");
  // Ids that are file paths (the CLI defaults dataset_id to the input path)
  // must not break the per-entry file naming.
  const std::string id = "/tmp/data/session input.dat";
  {
    PatternStore store;
    ASSERT_TRUE(store.Put(Key(10, id), SetOfSize(3), 42));
    ASSERT_TRUE(store.SaveTo(dir.str()).ok());
  }
  PatternStore reloaded;
  ASSERT_TRUE(reloaded.LoadFrom(dir.str()).ok());
  ASSERT_NE(reloaded.Get(Key(10, id)), nullptr);
  EXPECT_EQ(reloaded.NumTransactionsOf(Key(10, id)), 42u);
}

TEST(PatternStoreTest, LoadSkipsCorruptedFilesAndKeepsGoodOnes) {
  ScratchDir dir("corrupt");
  {
    PatternStore store;
    ASSERT_TRUE(store.Put(Key(10), SetOfSize(4), 100));
    ASSERT_TRUE(store.Put(Key(20), SetOfSize(4), 100));
    ASSERT_TRUE(store.SaveTo(dir.str()).ok());
  }
  // Corrupt one of the two files by flipping a byte in the middle; add a
  // file that is not a pattern file at all.
  std::vector<std::string> files;
  for (const auto& ent : std::filesystem::directory_iterator(dir.str())) {
    if (ent.path().extension() == ".gpat") files.push_back(ent.path());
  }
  ASSERT_EQ(files.size(), 2u);
  {
    std::fstream f(files[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    const auto size = std::filesystem::file_size(files[0]);
    f.seekp(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(size / 2));
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(size / 2));
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  {
    std::ofstream junk(dir.str() + "/junk.gpat");
    junk << "this is not a pattern file\n";
  }

  PatternStore reloaded;
  size_t skipped = 0;
  ASSERT_TRUE(reloaded.LoadFrom(dir.str(), &skipped).ok());
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(reloaded.stats().entries, 1u);
}

TEST(PatternStoreTest, LoadFromMissingDirectoryFails) {
  PatternStore store;
  EXPECT_FALSE(store.LoadFrom("/nonexistent/gogreen/store").ok());
}

// Concurrency smoke for the sharded store, aimed at the TSan CI leg:
// threads hammer every mutating and reading operation over a small hot key
// range while the byte budget stays a hard ceiling at every observation.
// Correctness of individual operations is covered above; this test is
// about data races and the global-ledger invariant under contention.
TEST(PatternStoreTest, ConcurrentMixedOperationsHoldBudgetInvariant) {
  const fpm::TransactionDb db = testutil::PaperExampleDb();
  auto mined = MinePatterns(*fpm::CreateMiner(fpm::MinerKind::kApriori), db, 3);
  ASSERT_TRUE(mined.ok());
  auto compressed = core::CompressDatabase(
      db, mined.value(),
      {core::CompressionStrategy::kMcp, core::MatcherKind::kAuto});
  ASSERT_TRUE(compressed.ok());
  auto cdb = std::make_shared<const core::CompressedDb>(
      std::move(compressed).value());

  // Room for only a handful of the ~16 hot keys: constant eviction churn.
  PatternStore::Options options;
  options.byte_budget = 5 * PatternSetCost(SetOfSize(8)) + cdb->MemoryUsage();
  PatternStore store(options);
  const size_t budget = store.byte_budget();

  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 400;
  constexpr uint64_t kHotKeys = 16;
  std::atomic<uint64_t> budget_violations{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(77 + static_cast<unsigned>(t));
      std::uniform_int_distribution<uint64_t> pick_key(1, kHotKeys);
      std::uniform_int_distribution<int> pick_op(0, 9);
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        const StoreKey key = Key(pick_key(rng));
        switch (pick_op(rng)) {
          case 0:
          case 1:
          case 2:
            store.Put(key, SetOfSize(1 + key.min_support % 8),
                      db.NumTransactions());
            break;
          case 3:
            store.PutCompressed(key, cdb);
            break;
          case 4:
          case 5:
            store.Get(key);
            break;
          case 6:
            store.GetCompressed(key);
            break;
          case 7:
            store.Candidates("db", "");
            break;
          case 8:
            store.stats();
            break;
          case 9:
            if (op % 100 == 0) {
              store.Clear();
            } else {
              store.NumTransactionsOf(key);
            }
            break;
        }
        if (store.bytes_in_use() > budget) {
          budget_violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(budget_violations.load(), 0u)
      << "byte budget exceeded under concurrent mixed operations";
  const StoreStats stats = store.stats();
  EXPECT_LE(stats.bytes_in_use, stats.byte_budget);
  // The ledger reconciles with the surviving contents: re-inserting every
  // surviving key into a fresh store accounts to the same byte total.
  store.Clear();
  EXPECT_EQ(store.bytes_in_use(), 0u);
}

TEST(PatternStoreTest, ZeroBudgetRejectsEverything) {
  PatternStore::Options options;
  options.byte_budget = 0;
  PatternStore store(options);
  EXPECT_FALSE(store.Put(Key(10), SetOfSize(1), 1));
  EXPECT_EQ(store.Get(Key(10)), nullptr);
  EXPECT_EQ(store.bytes_in_use(), 0u);
  EXPECT_EQ(store.stats().entries, 0u);
  // A degenerate store still answers the read-side API coherently.
  EXPECT_TRUE(store.Candidates("db", "").empty());
  store.Clear();
  EXPECT_EQ(store.bytes_in_use(), 0u);
}

TEST(PatternStoreTest, TinyBudgetAdmitsOnlyWhatFits) {
  PatternStore::Options options;
  options.byte_budget = PatternSetCost(SetOfSize(2));
  PatternStore store(options);
  ASSERT_TRUE(store.Put(Key(10), SetOfSize(2), 1));   // Exactly fits.
  EXPECT_FALSE(store.Put(Key(20), SetOfSize(3), 1));  // Alone too big.
  EXPECT_NE(store.Get(Key(10)), nullptr);
  EXPECT_EQ(store.bytes_in_use(), PatternSetCost(SetOfSize(2)));
}

TEST(PatternStoreTest, ShrinkBelowUsageEvictsLruToFit) {
  PatternStore store;  // Default (ample) budget.
  ASSERT_TRUE(store.Put(Key(10), SetOfSize(4), 1));
  ASSERT_TRUE(store.Put(Key(20), SetOfSize(4), 1));
  ASSERT_TRUE(store.Put(Key(30), SetOfSize(4), 1));
  // Touch the oldest so the middle entry is the global LRU victim.
  ASSERT_NE(store.Get(Key(10)), nullptr);
  const size_t per_entry = PatternSetCost(SetOfSize(4));
  ASSERT_EQ(store.bytes_in_use(), 3 * per_entry);

  store.SetByteBudget(2 * per_entry);
  EXPECT_EQ(store.byte_budget(), 2 * per_entry);
  EXPECT_LE(store.bytes_in_use(), 2 * per_entry);
  EXPECT_EQ(store.Get(Key(20)), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(store.Get(Key(10)), nullptr);
  EXPECT_NE(store.Get(Key(30)), nullptr);
  EXPECT_GE(store.stats().evictions, 1u);
}

TEST(PatternStoreTest, ShrinkToZeroEmptiesStoreAndRegrowReadmits) {
  PatternStore store;
  ASSERT_TRUE(store.Put(Key(10), SetOfSize(3), 1));
  ASSERT_TRUE(store.Put(Key(20), SetOfSize(3), 1));

  store.SetByteBudget(0);
  EXPECT_EQ(store.byte_budget(), 0u);
  EXPECT_EQ(store.bytes_in_use(), 0u);
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_FALSE(store.Put(Key(30), SetOfSize(1), 1));  // Still zero budget.

  // Regrowing takes effect immediately: inserts admit again.
  store.SetByteBudget(size_t{1} << 20);
  ASSERT_TRUE(store.Put(Key(30), SetOfSize(3), 1));
  EXPECT_NE(store.Get(Key(30)), nullptr);
  EXPECT_LE(store.bytes_in_use(), store.byte_budget());
}

}  // namespace
}  // namespace gogreen
