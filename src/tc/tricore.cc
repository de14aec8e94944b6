#include "tc/tricore.h"

#include <algorithm>

#include "tc/block_skeleton.h"
#include "tc/cost_rules.h"

namespace gputc {

StatusOr<KernelStats> TriCoreCounter::Price(const DirectedGraph& g,
                                            const DeviceSpec& spec,
                                            const ExecContext& ctx) const {
  const int lanes = spec.warp_size;
  return PriceVertexBuckets(
      g, spec, ctx, site(),
      [&](BlockCostModel& model, const ArcRange& arcs, SourceCursor source) {
        // Grid-stride over the block's arcs: warp w takes arcs w, w+W, ...
        for (int64_t i = arcs.begin; i < arcs.end; ++i) {
          const int warp =
              static_cast<int>((i - arcs.begin) % spec.warps_per_block);
          const int64_t du = g.out_degree(source(i));
          const int64_t dv = g.out_degree(g.adjacency()[i]);
          if (strategy_ == IntersectStrategy::kBinarySearch) {
            ChargeWarpSearch(model, warp, du, dv, spec);
          } else if (du + dv > 0) {
            // Merge-path: each lane locates its segment boundary by binary
            // search, then merges its (du + dv) / lanes slice.
            ThreadWork lane_work = BinarySearchBatch(
                /*keys=*/1, std::max(du, dv), /*shared=*/false, spec);
            lane_work += SortMerge((du + dv + lanes - 1) / lanes, 0, spec);
            model.AddThreadsWork(warp * lanes, lanes, lane_work);
          }
        }
      });
}

}  // namespace gputc
