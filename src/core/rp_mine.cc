#include "core/rp_mine.h"

#include "core/slice_db.h"

namespace gogreen::core {

namespace {

using fpm::Rank;

void MineRec(SliceMiningContext* ctx, const std::vector<Slice>& slices,
             std::vector<Rank>* prefix) {
  std::vector<uint64_t> counts;
  const std::vector<Rank> frequent = ctx->CountFrequent(slices, &counts);
  if (frequent.empty()) return;

  if (ctx->TrySingleGroup(slices, frequent, counts, prefix)) return;

  for (size_t i = 0; i < frequent.size(); ++i) {
    prefix->push_back(frequent[i]);
    ctx->EmitPattern(*prefix, counts[i]);
    const std::vector<Slice> projected = ProjectSlices(slices, frequent[i]);
    ++ctx->stats()->projections_built;
    if (!projected.empty()) MineRec(ctx, projected, prefix);
    prefix->pop_back();
  }
}

}  // namespace

fpm::PatternSet RpMineMiner::MineImpl(const SliceDb& sdb,
                                      const fpm::FList& flist,
                                      uint64_t min_support) {
  fpm::PatternSet out;
  SliceMiningContext ctx(flist, min_support, &out, &stats_);
  std::vector<Rank> prefix;
  MineRec(&ctx, sdb.slices, &prefix);
  return out;
}

}  // namespace gogreen::core
