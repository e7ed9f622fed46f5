// Tests for the debug-build structural validators (src/check/): each
// validator accepts the healthy structures built from all four example
// datasets, and reports seeded corruption — a broken H-struct hyperlink, a
// broken FP-tree header chain, a lossy / inconsistent compressed database,
// an out-of-order F-list, leaked run-context bytes.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.h"
#include "check/check_db.h"
#include "core/compressor.h"
#include "data/datasets.h"
#include "fpm/flist.h"
#include "fpm/fpgrowth.h"
#include "fpm/hmine.h"
#include "fpm/miner.h"
#include "fpm/transaction_db.h"
#include "tests/test_util.h"
#include "util/run_context.h"

namespace gogreen {
namespace {

using fpm::FList;
using fpm::ItemId;
using fpm::RankedDb;
using fpm::Tid;
using fpm::TransactionDb;
using testutil::MinePatterns;

TransactionDb SmallDb() {
  TransactionDb db;
  db.AddTransaction({1, 2, 3});
  db.AddTransaction({1, 2});
  db.AddTransaction({2, 3});
  db.AddTransaction({1, 3});
  db.AddTransaction({1, 2, 3, 4});
  return db;
}

check::RowFn RowsOf(const RankedDb& ranked) {
  return [&ranked](Tid t) { return ranked.Transaction(t); };
}

// --- Healthy structures: every validator passes on all four datasets. ---

TEST(CheckHealthyTest, AllExampleDatasets) {
  for (const data::DatasetId id : data::kAllDatasets) {
    const data::DatasetSpec& spec = data::GetDatasetSpec(id);
    Result<TransactionDb> made = data::MakeDataset(id, BenchScale::kSmoke);
    ASSERT_TRUE(made.ok()) << spec.name;
    const TransactionDb db = std::move(made).value();
    const uint64_t min_support =
        fpm::AbsoluteSupport(spec.xi_old, db.NumTransactions());

    const FList flist = FList::Build(db, min_support);
    EXPECT_TRUE(check::ValidateFList(flist, min_support).ok()) << spec.name;
    ASSERT_FALSE(flist.empty()) << spec.name;

    const RankedDb ranked = RankedDb::Build(db, flist);
    const check::HStructView hstruct =
        fpm::DebugRootHStruct(ranked, flist, min_support);
    EXPECT_TRUE(
        check::ValidateHStruct(hstruct, RowsOf(ranked), min_support).ok())
        << spec.name;

    const check::FpTreeView tree = fpm::DebugFpTreeView(db, min_support);
    EXPECT_TRUE(check::ValidateFpTree(tree, min_support).ok()) << spec.name;

    auto miner = fpm::CreateMiner(fpm::MinerKind::kFpGrowth);
    Result<fpm::PatternSet> fp = MinePatterns(*miner, db, min_support);
    ASSERT_TRUE(fp.ok()) << spec.name;
    Result<core::CompressedDb> cdb =
        core::CompressDatabase(db, *fp, core::CompressorOptions{});
    ASSERT_TRUE(cdb.ok()) << spec.name;
    EXPECT_TRUE(check::ValidateCompressedDb(*cdb, &db).ok()) << spec.name;
  }
}

// --- F-list. ---

TEST(CheckFListTest, ReportsSupportBelowThreshold) {
  const TransactionDb db = SmallDb();
  const FList flist = FList::Build(db, 2);
  EXPECT_TRUE(check::ValidateFList(flist, 2).ok());
  // Item 4 occurs twice at most... every support here is < 5, so checking
  // against a raised threshold must flag the low-support ranks.
  const Status st = check::ValidateFList(flist, 5);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("min_support"), std::string::npos);
}

// --- H-struct hyperlinks. ---

class CheckHStructTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = SmallDb();
    flist_ = FList::Build(db_, 2);
    ranked_ = RankedDb::Build(db_, flist_);
    view_ = fpm::DebugRootHStruct(ranked_, flist_, 2);
    ASSERT_FALSE(view_.frequent.empty());
    ASSERT_TRUE(check::ValidateHStruct(view_, RowsOf(ranked_), 2).ok());
  }

  TransactionDb db_;
  FList flist_;
  RankedDb ranked_;
  check::HStructView view_;
};

TEST_F(CheckHStructTest, ReportsCorruptHyperlink) {
  // A hyperlink must point one-past an occurrence of its extension rank;
  // position 0 cannot (there is no item before it).
  view_.buckets[0][0].pos = 0;
  const Status st = check::ValidateHStruct(view_, RowsOf(ranked_), 2);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("hyperlink"), std::string::npos);
}

TEST_F(CheckHStructTest, ReportsChainShorterThanSupport) {
  view_.buckets[0].pop_back();
  EXPECT_FALSE(check::ValidateHStruct(view_, RowsOf(ranked_), 2).ok());
}

TEST_F(CheckHStructTest, ReportsOutOfOrderTids) {
  ASSERT_GE(view_.buckets[0].size(), 2u);
  std::swap(view_.buckets[0][0], view_.buckets[0][1]);
  EXPECT_FALSE(check::ValidateHStruct(view_, RowsOf(ranked_), 2).ok());
}

TEST_F(CheckHStructTest, ReportsInflatedSupport) {
  view_.counts[0] += 1;
  EXPECT_FALSE(check::ValidateHStruct(view_, RowsOf(ranked_), 2).ok());
}

// --- FP-tree header table / node links. ---

class CheckFpTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = SmallDb();
    view_ = fpm::DebugFpTreeView(db_, 2);
    ASSERT_GT(view_.nodes.size(), 1u);
    ASSERT_TRUE(check::ValidateFpTree(view_, 2).ok());
  }

  TransactionDb db_;
  check::FpTreeView view_;
};

TEST_F(CheckFpTreeTest, ReportsBrokenHeaderChain) {
  // Drop one node from its rank's chain: the node is no longer threaded,
  // and the chain sum no longer matches the header count.
  const fpm::Rank r = view_.nodes[1].rank;
  ASSERT_FALSE(view_.header[r].empty());
  view_.header[r].pop_back();
  const Status st = check::ValidateFpTree(view_, 2);
  EXPECT_FALSE(st.ok());
}

TEST_F(CheckFpTreeTest, ReportsHeaderCountMismatch) {
  const fpm::Rank r = view_.nodes[1].rank;
  view_.header_counts[r] += 1;
  const Status st = check::ValidateFpTree(view_, 2);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("header count"), std::string::npos);
}

TEST_F(CheckFpTreeTest, ReportsCountMonotonicityViolation) {
  // Hand-built: a child whose count exceeds its parent's.
  check::FpTreeView v;
  v.nodes.push_back({fpm::kNoRank, 0, -1});
  v.nodes.push_back({1, 2, 0});
  v.nodes.push_back({0, 3, 1});  // Sum of node 1's children: 3 > 2.
  v.header = {{2}, {1}};
  v.header_counts = {3, 2};
  const Status st = check::ValidateFpTree(v, 1);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sum to"), std::string::npos);

  v.nodes[2].count = 2;  // Restore parent >= sum(children).
  v.header_counts[0] = 2;
  EXPECT_TRUE(check::ValidateFpTree(v, 1).ok());
}

TEST_F(CheckFpTreeTest, ReportsRankOrderViolation) {
  // Paths must carry strictly descending ranks from the root.
  check::FpTreeView v;
  v.nodes.push_back({fpm::kNoRank, 0, -1});
  v.nodes.push_back({0, 1, 0});
  v.nodes.push_back({1, 1, 1});  // Rank 1 below rank 0: ascending.
  v.header = {{1}, {2}};
  v.header_counts = {1, 1};
  const Status st = check::ValidateFpTree(v, 1);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("descending rank"), std::string::npos);
}

// --- Compressed database. ---

TEST(CheckCompressedDbTest, ReportsLossyCover) {
  const TransactionDb db = SmallDb();
  core::CompressedDb cdb;
  const std::vector<ItemId> pattern = {1, 2};
  cdb.AddGroup(fpm::ItemSpan(pattern));
  const std::vector<ItemId> wrong = {3, 4};  // Tid 1 is {1,2}: no 3,4.
  cdb.AddMember(0, std::vector<ItemId>{3});
  cdb.AddMember(1, fpm::ItemSpan(wrong));
  cdb.AddGroup({});
  cdb.AddMember(2, std::vector<ItemId>{2, 3});
  cdb.AddMember(3, std::vector<ItemId>{1, 3});
  cdb.AddMember(4, std::vector<ItemId>{1, 2, 3, 4});
  // Structurally sound (canonical, disjoint, tids a permutation)...
  EXPECT_TRUE(check::ValidateCompressedDb(cdb, nullptr).ok());
  // ...but member 1's cover is lossy against the original database.
  const Status st = check::ValidateCompressedDb(cdb, &db);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("lossy"), std::string::npos);
}

TEST(CheckCompressedDbTest, ReportsGroupCountMismatchWithOriginal) {
  // Group counts must sum to |DB|: a CDB that dropped tuples is reported.
  const TransactionDb db = SmallDb();
  core::CompressedDb cdb;
  cdb.AddGroup({});
  cdb.AddMember(0, std::vector<ItemId>{1, 2, 3});
  cdb.AddMember(1, std::vector<ItemId>{1, 2});
  const Status st = check::ValidateCompressedDb(cdb, &db);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("tuples"), std::string::npos);
}

TEST(CheckCompressedDbTest, ReportsDuplicateTid) {
  core::CompressedDb cdb;
  cdb.AddGroup({});
  cdb.AddMember(0, std::vector<ItemId>{1});
  cdb.AddMember(0, std::vector<ItemId>{2});  // Same tid twice.
  const Status st = check::ValidateCompressedDb(cdb, nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("permutation"), std::string::npos);
}

TEST(CheckCompressedDbTest, ReportsPatternOutlyingOverlap) {
  core::CompressedDb cdb;
  const std::vector<ItemId> pattern = {1, 2};
  cdb.AddGroup(fpm::ItemSpan(pattern));
  cdb.AddMember(0, std::vector<ItemId>{2, 3});  // Item 2 already in pattern.
  const Status st = check::ValidateCompressedDb(cdb, nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overlap"), std::string::npos);
}

// --- Run context. ---

TEST(CheckRunContextTest, ReportsLeakedBytes) {
  RunContext ctx;
  EXPECT_TRUE(check::ValidateRunContext(ctx).ok());
  ctx.AddBytes(128);
  const Status st = check::ValidateRunContext(ctx);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not released"), std::string::npos);
  ctx.ReleaseBytes(128);
  EXPECT_TRUE(check::ValidateRunContext(ctx).ok());
}

TEST(CheckRunContextTest, ReportsIncompleteWithoutStop) {
  RunContext ctx;
  ctx.MarkIncomplete(5);  // Incomplete, but no stop condition ever tripped.
  EXPECT_FALSE(check::ValidateRunContext(ctx).ok());

  RunContext stopped;
  stopped.RequestCancel();
  stopped.MarkIncomplete(5);
  EXPECT_TRUE(check::ValidateRunContext(stopped).ok());
}

}  // namespace
}  // namespace gogreen
