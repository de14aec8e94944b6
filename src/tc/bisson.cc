#include "tc/bisson.h"

#include <algorithm>

#include "tc/block_skeleton.h"
#include "tc/cost_rules.h"

namespace gputc {

StatusOr<KernelStats> BissonCounter::Price(const DirectedGraph& g,
                                           const DeviceSpec& spec,
                                           const ExecContext& ctx) const {
  const size_t threads = static_cast<size_t>(spec.threads_per_block());
  const ThreadWork bitmap = BitmapAccess(spec);
  BlockSkeleton skeleton(spec, ctx, site());
  return skeleton.Launch(
      g.offsets(),
      [&](BlockPricer& pricer, int64_t begin, int64_t end) -> Status {
        for (int64_t v = begin; v < end; ++v) {
          const auto nbrs = g.out_neighbors(static_cast<VertexId>(v));
          // The kernel skips leaf blocks immediately.
          if (nbrs.empty()) continue;
          GPUTC_RETURN_IF_ERROR(pricer.AddBlock([&](BlockCostModel& model) {
            // Superstep 0: cooperatively set a bitmap bit per element of
            // N+(v) (scattered global writes), then synchronize.
            for (size_t i = 0; i < nbrs.size(); i += threads) {
              model.AddThreadsWork(
                  0, static_cast<int>(std::min(threads, nbrs.size() - i)),
                  bitmap);
            }
            model.EndSuperstep();

            // Groups of `threads` neighbors: thread t scans N+(u_t) start to
            // end, probing the bitmap for every element.
            for (size_t group = 0; group < nbrs.size(); group += threads) {
              const size_t group_end = std::min(nbrs.size(), group + threads);
              for (size_t i = group; i < group_end; ++i) {
                const int64_t du = g.out_degree(nbrs[i]);
                ThreadWork work = SequentialScan(du, spec);
                work.compute_ops +=
                    bitmap.compute_ops * static_cast<double>(du);
                work.mem_transactions +=
                    bitmap.mem_transactions * static_cast<double>(du);
                model.AddThreadWork(static_cast<int>(i - group), work);
              }
              model.EndSuperstep();
            }
          }));
        }
        return OkStatus();
      });
}

}  // namespace gputc
