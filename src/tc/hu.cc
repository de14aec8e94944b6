#include "tc/hu.h"

#include <algorithm>
#include <vector>

#include "tc/block_skeleton.h"
#include "tc/cost_rules.h"

namespace gputc {

StatusOr<KernelStats> HuCounter::Price(const DirectedGraph& g,
                                       const DeviceSpec& spec,
                                       const ExecContext& ctx) const {
  const int threads = spec.threads_per_block();
  const std::vector<EdgeCount>& offsets = g.offsets();
  return PriceVertexBuckets(
      g, spec, ctx, site(),
      [&](BlockCostModel& model, const ArcRange& arcs, SourceCursor source) {
        SourceCursor step_last = source;
        for (int64_t step = arcs.begin; step < arcs.end; step += threads) {
          const int64_t step_end = std::min(arcs.end, step + threads);

          // Copy phase: stage the distinct u-lists this superstep will
          // search into shared memory (coalesced global reads), then
          // __syncthreads(). Arcs are grouped by source, so those lists are
          // one CSR run from the step's first source to its last.
          const int64_t staged =
              offsets[step_last(step_end - 1) + 1] - offsets[source(step)];
          const ThreadWork copy_share =
              CoalescedLoadLaneShare(staged, threads, spec);
          model.AddThreadsWork(0, static_cast<int>(step_end - step),
                               copy_share);
          model.EndSuperstep();

          // Search phase: thread t resolves arc (u, v): streams N+(v) from
          // global memory and binary searches each w in the staged N+(u)
          // (shared-memory pipeline).
          for (int64_t i = step; i < step_end; ++i) {
            const int64_t du = g.out_degree(source(i));
            const int64_t dv = g.out_degree(g.adjacency()[i]);
            ThreadWork work = SequentialScan(dv, spec);
            work += BinarySearchBatch(dv, du, /*shared=*/true, spec);
            model.AddThreadWork(static_cast<int>(i - step), work);
          }
          model.EndSuperstep();
        }
      });
}

}  // namespace gputc
