#ifndef GPUTC_TC_BLOCK_SKELETON_H_
#define GPUTC_TC_BLOCK_SKELETON_H_

#include <string>
#include <utility>
#include <vector>

#include "graph/directed_graph.h"
#include "sim/block_cost.h"
#include "sim/device.h"
#include "sim/kernel.h"
#include "tc/work_partition.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace gputc {

/// The block loop every simulated counter's Price runs. Before each priced
/// block it polls `ctx` (naming `site`) and passes the "tc.block" fail
/// point, so a cancellation or deadline expiry is observed within one
/// block's work. Blocks are priced on one BlockCostModel and launched in the
/// order they were added.
class BlockSkeleton {
 public:
  BlockSkeleton(const DeviceSpec& spec, const ExecContext& ctx,
                std::string site)
      : model_(spec), ctx_(ctx), site_(std::move(site)) {}

  /// Prices one block: `charge(model)` adds its threads' work between
  /// BeginBlock and Finish.
  template <typename Charge>
  Status AddBlock(Charge&& charge) {
    GPUTC_RETURN_IF_ERROR(ctx_.CheckContinue(site_));
    GPUTC_INJECT_FAULT("tc.block");
    model_.BeginBlock();
    charge(model_);
    blocks_.push_back(model_.Finish());
    return OkStatus();
  }

  /// A block with no arcs: launched at zero cost, never polled or priced.
  void AddEmptyBlock() { blocks_.push_back(BlockCost{}); }

  KernelStats Launch() const {
    return KernelLauncher(model_.spec()).Launch(blocks_);
  }

 private:
  BlockCostModel model_;
  const ExecContext& ctx_;
  std::string site_;
  std::vector<BlockCost> blocks_;
};

/// Prices a kernel over the paper's vertex buckets (Hu, TriCore, Gunrock,
/// Polak): block b owns the arcs of threads_per_block consecutive vertex ids
/// (VertexBucketArcRanges), and an empty bucket is a zero-cost block.
/// `charge(model, arcs, source)` prices one non-empty bucket's CSR arc range;
/// `source` yields each arc's source vertex.
template <typename Charge>
StatusOr<KernelStats> PriceVertexBuckets(const DirectedGraph& g,
                                         const DeviceSpec& spec,
                                         const ExecContext& ctx,
                                         std::string site, Charge&& charge) {
  BlockSkeleton skeleton(spec, ctx, std::move(site));
  const int bucket_size = spec.threads_per_block();
  VertexId first = 0;
  for (const ArcRange& arcs : VertexBucketArcRanges(g, bucket_size)) {
    if (arcs.size() == 0) {
      skeleton.AddEmptyBlock();
    } else {
      GPUTC_RETURN_IF_ERROR(skeleton.AddBlock([&](BlockCostModel& model) {
        charge(model, arcs, SourceCursor(g, first));
      }));
    }
    first += static_cast<VertexId>(bucket_size);
  }
  return skeleton.Launch();
}

}  // namespace gputc

#endif  // GPUTC_TC_BLOCK_SKELETON_H_
