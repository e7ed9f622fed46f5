// Constraint pushdown: mining with anti-monotone constraints enforced
// *during* the search (when a prefix fails an anti-monotone constraint, no
// extension can satisfy it, so the whole subtree is pruned), with the
// remaining constraint categories applied as a final filter. This is the
// "push constraints deep into the mining algorithm" technique the paper
// cites ([12, 14]) as the source of the iterative refinement workload that
// recycling accelerates.

#ifndef GOGREEN_CORE_CONSTRAINED_MINE_H_
#define GOGREEN_CORE_CONSTRAINED_MINE_H_

#include "core/compressed_db.h"
#include "fpm/constraints.h"
#include "fpm/miner.h"
#include "fpm/transaction_db.h"
#include "util/status.h"

namespace gogreen::core {

/// Mines the patterns of `db` satisfying `constraints`, pruning subtrees
/// with the anti-monotone members during an H-Mine-style search and
/// post-filtering with the rest. Exact: equals mining the complete set and
/// filtering, but can visit a much smaller search space.
Result<fpm::PatternSet> MineConstrained(const fpm::TransactionDb& db,
                                        const fpm::ConstraintSet& constraints,
                                        fpm::MiningStats* stats = nullptr);

/// The same, over a compressed database (recycling + pushdown combined):
/// slices are decoded lazily and subtrees failing the anti-monotone
/// constraints are pruned before projection.
Result<fpm::PatternSet> MineConstrainedCompressed(
    const CompressedDb& cdb, const fpm::ConstraintSet& constraints,
    fpm::MiningStats* stats = nullptr);

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_CONSTRAINED_MINE_H_
