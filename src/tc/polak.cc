#include "tc/polak.h"

#include "tc/block_skeleton.h"
#include "tc/cost_rules.h"

namespace gputc {

StatusOr<KernelStats> PolakCounter::Price(const DirectedGraph& g,
                                          const DeviceSpec& spec,
                                          const ExecContext& ctx) const {
  const int threads = spec.threads_per_block();
  return PriceVertexBuckets(
      g, spec, ctx, site(),
      [&](BlockCostModel& model, const ArcRange& arcs, SourceCursor source) {
        // Grid-stride within the block: thread t handles arcs t, t+T, ...
        for (int64_t i = arcs.begin; i < arcs.end; ++i) {
          const int64_t du = g.out_degree(source(i));
          const int64_t dv = g.out_degree(g.adjacency()[i]);
          ThreadWork work = SequentialScan(dv, spec);
          work += BinarySearchBatch(dv, du, /*shared=*/false, spec);
          model.AddThreadWork(static_cast<int>((i - arcs.begin) % threads),
                              work);
        }
      });
}

}  // namespace gputc
