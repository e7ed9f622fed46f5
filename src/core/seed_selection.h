// Choosing which cached pattern set should seed a mining query.
//
// A cache over one database may hold complete pattern sets mined at several
// support thresholds. Given a new target support ξ_new, every cached entry
// enables exactly one of the paper's reuse paths:
//
//   - entry at ξ == ξ_new      -> exact hit: return the cached set;
//   - entry at ξ  < ξ_new      -> filter down: the cached set is a superset,
//                                 FilterBySupport(ξ_new) answers the query
//                                 without touching the database;
//   - entry at ξ  > ξ_new      -> recycle: compress the database with the
//                                 cached set (ξ_old ≥ ξ_new, Section 3.2)
//                                 and mine the compressed image.
//
// SelectSeed ranks the candidates by route cost (exact < filter < recycle)
// and, within a route, by how much work the seed leaves: filtering prefers
// the largest ξ below the target (fewest extra patterns to drop), recycling
// prefers the smallest ξ above the target (the richer pattern set covers
// more of each transaction, so the compressed image is smaller — the paper's
// tightest-ξ_old rule). serve::MiningService applies it to the entries of
// its serve::PatternStore.

#ifndef GOGREEN_CORE_SEED_SELECTION_H_
#define GOGREEN_CORE_SEED_SELECTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gogreen::core {

/// How a chosen seed answers the query.
enum class SeedRoute {
  kNone,        ///< No usable seed: mine the raw database from scratch.
  kExact,       ///< Cached at the target support: return it as-is.
  kFilterDown,  ///< Cached below the target: FilterBySupport, no mining.
  kRecycle,     ///< Cached above the target: compress + mine compressed.
};

const char* SeedRouteName(SeedRoute route);

/// One cached complete pattern set, described for selection purposes only.
/// `tag` is an opaque caller-side handle (index, key slot, ...) echoed back
/// through SeedChoice.
struct SeedCandidate {
  uint64_t min_support = 0;   ///< Support the cached set is complete at.
  bool has_compressed = false;  ///< A compressed image is already memoized.
  uint64_t last_used = 0;     ///< Logical clock; larger = more recent.
  size_t tag = 0;
};

/// The winning candidate and the route it enables. When `route` is kNone the
/// other fields are meaningless.
struct SeedChoice {
  SeedRoute route = SeedRoute::kNone;
  size_t tag = 0;
  uint64_t min_support = 0;  ///< The winning candidate's support.
};

/// Picks the cheapest seed for a query at `target_support` (>= 1). Route
/// preference is exact > filter-down > recycle; ties inside a route break on
/// distance to the target, then on `has_compressed` (a memoized image saves
/// the compression pass), then on recency (`last_used`).
SeedChoice SelectSeed(const std::vector<SeedCandidate>& candidates,
                      uint64_t target_support);

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_SEED_SELECTION_H_
