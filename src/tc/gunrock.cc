#include "tc/gunrock.h"

#include <algorithm>

#include "tc/block_skeleton.h"
#include "tc/cost_rules.h"

namespace gputc {

StatusOr<KernelStats> GunrockCounter::Price(const DirectedGraph& g,
                                            const DeviceSpec& spec,
                                            const ExecContext& ctx) const {
  const int threads = spec.threads_per_block();
  return PriceVertexBuckets(
      g, spec, ctx, site(),
      [&](BlockCostModel& model, const ArcRange& arcs, SourceCursor source) {
        for (int64_t i = arcs.begin; i < arcs.end; ++i) {
          const int64_t du = g.out_degree(source(i));
          const int64_t dv = g.out_degree(g.adjacency()[i]);
          ThreadWork work;
          if (strategy_ == IntersectStrategy::kBinarySearch) {
            // Stream the shorter list, search each key in the longer one.
            const int64_t shorter = std::min(du, dv);
            work = SequentialScan(shorter, spec);
            work += BinarySearchBatch(shorter, std::max(du, dv),
                                      /*shared=*/false, spec);
          } else {
            work = SortMerge(du, dv, spec);
          }
          model.AddThreadWork(static_cast<int>((i - arcs.begin) % threads),
                              work);
        }
      });
}

}  // namespace gputc
