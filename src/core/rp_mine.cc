#include "core/rp_mine.h"

#include "check/check_db.h"
#include "core/slice_db.h"
#include "obs/trace.h"
#include "util/timer.h"

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

Result<fpm::PatternSet> RpMineMiner::MineImpl(const CompressedDb& cdb,
                                              uint64_t min_support) {
  stats_.Reset();
  GOGREEN_TRACE_SPAN("mine.rp-mine");
  Timer timer;
  fpm::PatternSet out;

  const fpm::FList flist = fpm::FList::FromCounts(
      cdb.CountItemSupports(cdb.ItemUniverseSize()), min_support);
  if (check::ValidationEnabled()) {
    GOGREEN_VALIDATE_OR_DIE(check::ValidateCompressedDb(cdb, nullptr));
    GOGREEN_VALIDATE_OR_DIE(check::ValidateFList(flist, min_support));
  }
  if (!flist.empty()) {
    const SliceDb sdb = SliceDb::Build(cdb, flist);
    SliceMiningContext ctx(flist, min_support, &out, &stats_);
    std::vector<Rank> prefix;
    MineRec(&ctx, sdb.slices, &prefix);
  }

  stats_.patterns_emitted = out.size();
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  fpm::RecordMiningStats(stats_);
  return out;
}

}  // namespace gogreen::core
