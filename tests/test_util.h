// Shared helpers for the gogreen test suites.

#ifndef GOGREEN_TESTS_TEST_UTIL_H_
#define GOGREEN_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "fpm/miner.h"
#include "fpm/transaction_db.h"
#include "util/random.h"
#include "util/status.h"

namespace gogreen::testutil {

/// Builds a database from an explicit list of transactions.
inline fpm::TransactionDb MakeDb(
    const std::vector<std::vector<fpm::ItemId>>& rows) {
  fpm::TransactionDb db;
  for (const auto& row : rows) db.AddTransaction(row);
  return db;
}

/// The 5-transaction example database of Table 1 in the paper, with items
/// a..i encoded as 0..8.
/// 100: a,c,d,e,f,g   200: b,c,d,f,g   300: c,e,f,g   400: a,c,e,i
/// 500: a,e,h
inline fpm::TransactionDb PaperExampleDb() {
  constexpr fpm::ItemId a = 0, b = 1, c = 2, d = 3, e = 4, f = 5, g = 6,
                        h = 7, i = 8;
  return MakeDb({{a, c, d, e, f, g},
                 {b, c, d, f, g},
                 {c, e, f, g},
                 {a, c, e, i},
                 {a, e, h}});
}

/// A random sparse-ish database: `num_transactions` rows over `num_items`
/// items with approximately `avg_len` items each, with a Zipf-like skew so
/// that non-trivial frequent patterns exist.
inline fpm::TransactionDb RandomDb(uint64_t seed, size_t num_transactions,
                                   size_t num_items, double avg_len) {
  Random rng(seed);
  fpm::TransactionDb db;
  for (size_t t = 0; t < num_transactions; ++t) {
    const uint32_t len = 1 + rng.Poisson(avg_len > 1 ? avg_len - 1 : 0.5);
    std::vector<fpm::ItemId> row;
    row.reserve(len);
    for (uint32_t k = 0; k < len; ++k) {
      // Squaring a uniform skews towards low item ids (popular items).
      const double u = rng.NextDouble();
      row.push_back(static_cast<fpm::ItemId>(
          u * u * static_cast<double>(num_items)));
    }
    db.AddTransaction(std::move(row));
  }
  return db;
}

/// A random dense database: every row has one value per attribute, with a
/// heavily skewed value distribution (mimics Connect-4 / Pumsb density).
inline fpm::TransactionDb RandomDenseDb(uint64_t seed,
                                        size_t num_transactions,
                                        size_t num_attrs,
                                        size_t values_per_attr) {
  Random rng(seed);
  fpm::TransactionDb db;
  for (size_t t = 0; t < num_transactions; ++t) {
    std::vector<fpm::ItemId> row;
    row.reserve(num_attrs);
    for (size_t a = 0; a < num_attrs; ++a) {
      // 70% chance of the attribute's dominant value.
      size_t v = rng.Bernoulli(0.7) ? 0 : rng.Uniform(values_per_attr);
      row.push_back(static_cast<fpm::ItemId>(a * values_per_attr + v));
    }
    db.AddTransaction(std::move(row));
  }
  return db;
}

/// The complete set of `db` (a TransactionDb, or a CompressedDb for a
/// core::CompressedMiner) at `min_support`, mined through the request API
/// (MineRequest::At), or the miner's error.
template <typename Miner, typename Db>
Result<fpm::PatternSet> MinePatterns(Miner& miner, const Db& db,
                                     uint64_t min_support) {
  GOGREEN_ASSIGN_OR_RETURN(fpm::MineResult result,
                           miner.Mine(db, fpm::MineRequest::At(min_support)));
  return std::move(result.patterns);
}

}  // namespace gogreen::testutil

#endif  // GOGREEN_TESTS_TEST_UTIL_H_
