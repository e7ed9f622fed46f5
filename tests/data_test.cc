// Tests for the data substrate: .dat I/O, the Quest and dense generators,
// and the named benchmark datasets.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/dat_io.h"
#include "data/datasets.h"
#include "data/dense_gen.h"
#include "data/quest_gen.h"
#include "fpm/miner.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace gogreen::data {
namespace {

using fpm::ItemId;
using fpm::TransactionDb;
using testutil::MinePatterns;

std::string TempPath(const char* name) {
  return TempDir() + "/" + name + std::to_string(::getpid()) + ".dat";
}

TEST(DatIoTest, RoundTrip) {
  TransactionDb db;
  db.AddTransaction({3, 1, 2});
  db.AddTransaction({});
  db.AddTransaction({42});
  const std::string path = TempPath("dat_roundtrip");
  auto written = WriteDatFile(db, path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(written.value(), 0u);

  auto loaded = ReadDatFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumTransactions(), 3u);
  const fpm::ItemSpan row0 = loaded->Transaction(0);
  EXPECT_EQ(std::vector<ItemId>(row0.begin(), row0.end()),
            (std::vector<ItemId>{1, 2, 3}));
  EXPECT_TRUE(loaded->Transaction(1).empty());
  std::remove(path.c_str());
}

TEST(DatIoTest, ReadHandlesWhitespaceVariants) {
  const std::string path = TempPath("dat_ws");
  {
    std::ofstream out(path);
    out << "1  2\t3 \n\n 7\n";
  }
  auto loaded = ReadDatFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->NumTransactions(), 3u);
  EXPECT_EQ(loaded->Transaction(0).size(), 3u);
  EXPECT_TRUE(loaded->Transaction(1).empty());
  EXPECT_EQ(loaded->Transaction(2).size(), 1u);
  std::remove(path.c_str());
}

TEST(DatIoTest, ReadRejectsMalformedTokens) {
  const std::string path = TempPath("dat_bad");
  {
    std::ofstream out(path);
    out << "1 banana 3\n";
  }
  auto loaded = ReadDatFile(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(DatIoTest, MalformedInputTable) {
  // Every malformed shape must come back as InvalidArgument naming the
  // offending line — never UB, never a crash, never a silent truncation.
  struct Case {
    const char* name;
    std::string content;
    const char* expect_line;  // "path:<line>" suffix expected in the message.
  };
  // Matches the 1 MiB line cap in dat_io.cc.
  const std::string overlong(size_t{1} << 20, 'x');
  const Case cases[] = {
      {"non_numeric_token", "1 2\nfoo 3\n", ":2"},
      {"negative_item", "1 -2 3\n", ":1"},
      {"overflow_item", "1 99999999999 3\n", ":1"},
      {"sentinel_item", "4294967295\n", ":1"},
      {"embedded_nul", std::string("1 2\n3 ") + '\0' + " 4\n", ":2"},
      {"line_too_long", overlong + "\n", ":1"},
      {"trailing_garbage", "1 2 3x\n", ":1"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = TempPath(c.name);
    {
      std::ofstream out(path, std::ios::binary);
      out.write(c.content.data(),
                static_cast<std::streamsize>(c.content.size()));
    }
    auto loaded = ReadDatFile(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    const std::string msg = loaded.status().ToString();
    EXPECT_NE(msg.find(path + c.expect_line), std::string::npos) << msg;
    std::remove(path.c_str());
  }
}

TEST(DatIoTest, ValidEdgeCasesStillParse) {
  // Boundary inputs that must NOT be rejected: max-1 item id, a line just
  // under the cap, CRLF endings, and a final line without a newline.
  const std::string path = TempPath("dat_edge");
  {
    std::ofstream out(path, std::ios::binary);
    out << "4294967294\r\n";
    out << "1 2\r\n";
    out << "7 8";  // No trailing newline.
  }
  auto loaded = ReadDatFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumTransactions(), 3u);
  EXPECT_EQ(loaded->Transaction(0)[0], 4294967294u);
  EXPECT_EQ(loaded->Transaction(2).size(), 2u);
  std::remove(path.c_str());
}

TEST(DatIoTest, MissingFileFails) {
  EXPECT_FALSE(ReadDatFile("/nonexistent/x.dat").ok());
}

TEST(QuestGenTest, RespectsBasicShape) {
  QuestConfig cfg;
  cfg.num_transactions = 2000;
  cfg.avg_transaction_len = 10.0;
  cfg.num_items = 500;
  cfg.num_patterns = 50;
  cfg.seed = 5;
  auto db = GenerateQuest(cfg);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumTransactions(), 2000u);
  EXPECT_NEAR(db->AvgLength(), 10.0, 2.5);
  EXPECT_LE(db->ItemUniverseSize(), 500u);
}

TEST(QuestGenTest, DeterministicPerSeed) {
  QuestConfig cfg;
  cfg.num_transactions = 200;
  cfg.seed = 9;
  auto a = GenerateQuest(cfg);
  auto b = GenerateQuest(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->NumTransactions(), b->NumTransactions());
  for (fpm::Tid t = 0; t < a->NumTransactions(); ++t) {
    const auto ra = a->Transaction(t);
    const auto rb = b->Transaction(t);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()));
  }
  cfg.seed = 10;
  auto c = GenerateQuest(cfg);
  ASSERT_TRUE(c.ok());
  // Different seed differs somewhere.
  bool differs = c->TotalItems() != a->TotalItems();
  for (fpm::Tid t = 0; !differs && t < 10; ++t) {
    const auto ra = a->Transaction(t);
    const auto rc = c->Transaction(t);
    differs = !std::equal(ra.begin(), ra.end(), rc.begin(), rc.end());
  }
  EXPECT_TRUE(differs);
}

TEST(QuestGenTest, ProducesFrequentPatterns) {
  QuestConfig cfg;
  cfg.num_transactions = 3000;
  cfg.num_items = 300;
  cfg.num_patterns = 30;
  cfg.avg_pattern_len = 3.0;
  cfg.weight_skew = 2.0;
  cfg.corruption_mean = 0.2;
  cfg.seed = 6;
  auto db = GenerateQuest(cfg);
  ASSERT_TRUE(db.ok());
  auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
  auto fp = MinePatterns(*miner, *db, fpm::AbsoluteSupport(0.05, 3000));
  ASSERT_TRUE(fp.ok());
  EXPECT_GT(fp->size(), 5u);
  EXPECT_GE(fp->MaxLength(), 2u);
}

TEST(QuestGenTest, RejectsBadConfig) {
  QuestConfig cfg;
  cfg.num_items = 0;
  EXPECT_FALSE(GenerateQuest(cfg).ok());
  cfg = QuestConfig();
  cfg.num_patterns = 0;
  EXPECT_FALSE(GenerateQuest(cfg).ok());
  cfg = QuestConfig();
  cfg.avg_transaction_len = 0.5;
  EXPECT_FALSE(GenerateQuest(cfg).ok());
}

TEST(DenseGenTest, EveryTupleHasOneItemPerAttribute) {
  DenseConfig cfg = DenseConfig::Uniform(500, 8, 4, 11);
  auto db = GenerateDense(cfg);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumTransactions(), 500u);
  EXPECT_DOUBLE_EQ(db->AvgLength(), 8.0);
  for (fpm::Tid t = 0; t < 50; ++t) {
    const auto row = db->Transaction(t);
    ASSERT_EQ(row.size(), 8u);
    for (size_t a = 0; a < 8; ++a) {
      EXPECT_GE(row[a], a * 4);
      EXPECT_LT(row[a], (a + 1) * 4);
    }
  }
}

TEST(DenseGenTest, PerAttributeDominantProbsShapeFrequencies) {
  DenseConfig cfg = DenseConfig::Uniform(4000, 4, 3, 13);
  cfg.dominant_probs = {0.99, 0.5, 0.99, 0.2};
  auto db = GenerateDense(cfg);
  ASSERT_TRUE(db.ok());
  const auto counts = db->CountItemSupports();
  EXPECT_GT(counts[0], 3800u);   // Attr 0 dominant ~99%.
  EXPECT_LT(counts[3 * 3], 1200u);  // Attr 3 dominant ~20%.
}

TEST(DenseGenTest, RejectsBadConfig) {
  DenseConfig cfg;
  EXPECT_FALSE(GenerateDense(cfg).ok());  // No cardinalities.
  cfg.cardinalities = {3, 0};
  EXPECT_FALSE(GenerateDense(cfg).ok());  // Zero cardinality.
  cfg.cardinalities = {3, 3};
  cfg.dominant_probs = {0.5};
  EXPECT_FALSE(GenerateDense(cfg).ok());  // Size mismatch.
}

TEST(DatasetsTest, SmokeScaleShapes) {
  for (DatasetId id : kAllDatasets) {
    const DatasetSpec& spec = GetDatasetSpec(id);
    SCOPED_TRACE(spec.name);
    auto db = MakeDataset(id, BenchScale::kSmoke);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->NumTransactions(),
              DatasetTransactions(id, BenchScale::kSmoke));
    EXPECT_GT(db->AvgLength(), 1.0);
    // The xi_new sweep is a strict relaxation sequence below xi_old.
    double prev = spec.xi_old;
    for (double xi : spec.xi_new_sweep) {
      EXPECT_LT(xi, prev);
      prev = xi;
    }
  }
}

TEST(DatasetsTest, DenseFlagMatchesShape) {
  auto dense = MakeDataset(DatasetId::kConnect4Sub, BenchScale::kSmoke);
  ASSERT_TRUE(dense.ok());
  EXPECT_DOUBLE_EQ(dense->AvgLength(), 43.0);
  EXPECT_TRUE(GetDatasetSpec(DatasetId::kConnect4Sub).dense);
  EXPECT_FALSE(GetDatasetSpec(DatasetId::kWeatherSub).dense);
}

TEST(DatasetsTest, RecyclablePatternsExistAtXiOld) {
  // The premise of every experiment: mining at xi_old yields a non-trivial
  // pattern set to recycle.
  for (DatasetId id : kAllDatasets) {
    const DatasetSpec& spec = GetDatasetSpec(id);
    SCOPED_TRACE(spec.name);
    auto db = MakeDataset(id, BenchScale::kSmoke);
    ASSERT_TRUE(db.ok());
    auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
    auto fp = MinePatterns(
        *miner, *db, fpm::AbsoluteSupport(spec.xi_old, db->NumTransactions()));
    ASSERT_TRUE(fp.ok());
    EXPECT_GT(fp->size(), 10u);
  }
}

}  // namespace
}  // namespace gogreen::data
