// Tests for pattern-set persistence (binary and text formats), including
// the crash-safety contract: writes publish atomically via a temp file and
// rename, corruption anywhere in a binary file is caught by the checksum
// trailer, and injected write/rename faults leave no temp debris and never
// clobber a previously published file.

#include "fpm/pattern_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "fpm/miner.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "util/failpoint.h"

namespace gogreen::fpm {
namespace {

using testutil::MinePatterns;

std::string TempPath(const char* name) {
  return TempDir() + "/" + name + std::to_string(::getpid());
}

PatternSet SamplePatterns() {
  PatternSet fp;
  fp.Add({1, 2, 3}, 10);
  fp.Add({5}, 42);
  fp.Add({2, 9}, 7);
  return fp;
}

TEST(PatternIoTest, BinaryRoundTrip) {
  const std::string path = TempPath("patio_bin_");
  PatternSetHeader header;
  header.min_support = 7;
  header.num_transactions = 100;
  header.source = "unit-test";
  auto written = WritePatternFile(SamplePatterns(), header, path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(written.value(), 0u);

  auto loaded = ReadPatternFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  PatternSet expected = SamplePatterns();
  EXPECT_TRUE(PatternSet::Equal(&expected, &loaded->first));
  EXPECT_EQ(loaded->second.min_support, 7u);
  EXPECT_EQ(loaded->second.num_transactions, 100u);
  EXPECT_EQ(loaded->second.source, "unit-test");
  std::remove(path.c_str());
}

TEST(PatternIoTest, BinaryRejectsGarbage) {
  const std::string path = TempPath("patio_garbage_");
  {
    std::ofstream out(path, std::ios::binary);
    out << "nope";
  }
  EXPECT_FALSE(ReadPatternFile(path).ok());
  std::remove(path.c_str());
}

TEST(PatternIoTest, BinaryRejectsTruncation) {
  const std::string path = TempPath("patio_trunc_");
  PatternSetHeader header;
  ASSERT_TRUE(WritePatternFile(SamplePatterns(), header, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
  }
  EXPECT_FALSE(ReadPatternFile(path).ok());
  std::remove(path.c_str());
}

TEST(PatternIoTest, TextRoundTrip) {
  const std::string path = TempPath("patio_txt_");
  auto written = WritePatternText(SamplePatterns(), path);
  ASSERT_TRUE(written.ok());
  auto loaded = ReadPatternText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  PatternSet expected = SamplePatterns();
  EXPECT_TRUE(PatternSet::Equal(&expected, &loaded.value()));
  std::remove(path.c_str());
}

TEST(PatternIoTest, TextRejectsMissingSupport) {
  const std::string path = TempPath("patio_badtxt_");
  {
    std::ofstream out(path);
    out << "1 2 3\n";
  }
  EXPECT_FALSE(ReadPatternText(path).ok());
  std::remove(path.c_str());
}

TEST(PatternIoTest, EmptySetRoundTrips) {
  const std::string path = TempPath("patio_empty_");
  ASSERT_TRUE(WritePatternFile(PatternSet(), {}, path).ok());
  auto loaded = ReadPatternFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->first.empty());
  std::remove(path.c_str());
}

TEST(PatternIoTest, ChecksumCatchesSingleBitCorruption) {
  const std::string path = TempPath("patio_bitflip_");
  PatternSetHeader header;
  header.min_support = 7;
  header.source = "bitflip";
  ASSERT_TRUE(WritePatternFile(SamplePatterns(), header, path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one bit at every offset in turn: no single-bit corruption anywhere
  // in the file — header, payload, or trailer — may read back as OK.
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x01);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    EXPECT_FALSE(ReadPatternFile(path).ok())
        << "bit flip at offset " << pos << " went undetected";
  }
  std::remove(path.c_str());
}

TEST(PatternIoTest, WriteLeavesNoTempFileBehind) {
  const std::string path = TempPath("patio_notmp_");
  ASSERT_TRUE(WritePatternFile(SamplePatterns(), {}, path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(PatternIoTest, InjectedWriteFaultLeavesNoDebris) {
  const std::string path = TempPath("patio_failwrite_");
  failpoint::ScopedFailpoints fp("pattern_io.write:ioerror");
  EXPECT_FALSE(WritePatternFile(SamplePatterns(), {}, path).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(PatternIoTest, InjectedRenameFaultPreservesThePublishedFile) {
  const std::string path = TempPath("patio_failrename_");
  // Publish a good file first.
  PatternSetHeader header;
  header.min_support = 7;
  ASSERT_TRUE(WritePatternFile(SamplePatterns(), header, path).ok());

  // A failed re-write must neither clobber it nor leave a temp file.
  {
    failpoint::ScopedFailpoints fp("pattern_io.rename:ioerror");
    PatternSet other;
    other.Add({8, 9}, 3);
    EXPECT_FALSE(WritePatternFile(other, {}, path).ok());
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto loaded = ReadPatternFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  PatternSet expected = SamplePatterns();
  EXPECT_TRUE(PatternSet::Equal(&expected, &loaded->first));
  EXPECT_EQ(loaded->second.min_support, 7u);
  std::remove(path.c_str());
}

TEST(PatternIoTest, TextWriteIsAlsoAtomic) {
  const std::string path = TempPath("patio_txtatomic_");
  ASSERT_TRUE(WritePatternText(SamplePatterns(), path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  {
    failpoint::ScopedFailpoints fp("pattern_io.write:ioerror");
    EXPECT_FALSE(WritePatternText(SamplePatterns(), path).ok());
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto loaded = ReadPatternText(path);
  EXPECT_TRUE(loaded.ok());
  std::remove(path.c_str());
}

TEST(PatternIoTest, MinedSetRoundTripsExactly) {
  const auto db = testutil::RandomDb(55, 300, 40, 6.0);
  auto fp = MinePatterns(*CreateMiner(MinerKind::kFpGrowth), db, 15);
  ASSERT_TRUE(fp.ok());
  const std::string path = TempPath("patio_mined_");
  PatternSetHeader header{15, db.NumTransactions(), "mined"};
  ASSERT_TRUE(WritePatternFile(*fp, header, path).ok());
  auto loaded = ReadPatternFile(path);
  ASSERT_TRUE(loaded.ok());
  PatternSet expected = std::move(fp).value();
  EXPECT_TRUE(PatternSet::Equal(&expected, &loaded->first));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gogreen::fpm
