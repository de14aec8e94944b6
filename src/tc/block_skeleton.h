#ifndef GPUTC_TC_BLOCK_SKELETON_H_
#define GPUTC_TC_BLOCK_SKELETON_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/directed_graph.h"
#include "obs/trace.h"
#include "sim/block_cost.h"
#include "sim/device.h"
#include "sim/kernel.h"
#include "tc/work_partition.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/parallel.h"
#include "util/status.h"

namespace gputc {

/// Prices one range of blocks, in order, on a BlockCostModel of its own.
/// Before each priced block it polls `ctx` (naming `site`) and passes the
/// "tc.block" fail point, so a cancellation or deadline expiry is observed
/// within one block's work on every thread.
class BlockPricer {
 public:
  BlockPricer(const DeviceSpec& spec, const ExecContext& ctx,
              std::string_view site, std::vector<BlockCost>& blocks)
      : model_(spec), ctx_(ctx), site_(site), blocks_(blocks) {}

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

 private:
  BlockCostModel model_;
  const ExecContext& ctx_;
  std::string_view site_;
  std::vector<BlockCost>& blocks_;
};

/// The block loop every simulated counter's Price runs. It opens the
/// "tc.price" span on the calling thread for its lifetime, so construct it
/// before any other pricing work. Launch splits the blocks over the host
/// pool by arcs; each range is priced on its own model, and the blocks are
/// launched in the order a single thread would have added them.
class BlockSkeleton {
 public:
  BlockSkeleton(const DeviceSpec& spec, const ExecContext& ctx,
                std::string site)
      : spec_(spec),
        ctx_(ctx),
        site_(std::move(site)),
        span_(StartSpan(ctx, "tc.price")) {}

  /// Prices and launches the blocks of items [0, n), where item i carries
  /// arcs[i + 1] - arcs[i] arcs (n + 1 entries) and adds at most one block.
  /// `price_range(pricer, begin, end)` adds the blocks of items [begin, end)
  /// in order and returns a Status; it runs concurrently for disjoint
  /// ranges, so it may only read shared state.
  template <typename PriceRange>
  StatusOr<KernelStats> Launch(std::span<const int64_t> arcs,
                               PriceRange&& price_range) {
    const ParallelSplit split = SplitByArcs(arcs);
    span_.SetAttr("threads", static_cast<int64_t>(split.threads));
    // Reserved by the caller, so pool threads never hold block storage in
    // malloc arenas of their own.
    std::vector<std::vector<BlockCost>> parts(
        static_cast<size_t>(split.tasks()));
    for (int t = 0; t < split.tasks(); ++t) {
      parts[t].reserve(
          static_cast<size_t>(split.bounds[t + 1] - split.bounds[t]));
    }
    GPUTC_RETURN_IF_ERROR(ParallelFor(split, [&](const ParallelTask& task) {
      BlockPricer pricer(spec_, ctx_, site_, parts[task.index]);
      return price_range(pricer, task.begin, task.end);
    }));
    return KernelLauncher(spec_).LaunchParts(parts);
  }

 private:
  DeviceSpec spec_;
  const ExecContext& ctx_;
  std::string site_;
  Span span_;
};

/// Prices a kernel over the paper's vertex buckets (Hu, TriCore, Gunrock,
/// Polak): block b owns the arcs of threads_per_block consecutive vertex ids
/// (VertexBucketArcBounds), and an empty bucket is a zero-cost block.
/// `charge(model, arcs, source)` prices one non-empty bucket's CSR arc range;
/// `source` yields each arc's source vertex. Buckets are priced concurrently,
/// so `charge` may only read shared state.
template <typename Charge>
StatusOr<KernelStats> PriceVertexBuckets(const DirectedGraph& g,
                                         const DeviceSpec& spec,
                                         const ExecContext& ctx,
                                         std::string site, Charge&& charge) {
  BlockSkeleton skeleton(spec, ctx, std::move(site));
  const int bucket_size = spec.threads_per_block();
  const std::vector<EdgeCount> bounds = VertexBucketArcBounds(g, bucket_size);
  return skeleton.Launch(
      bounds,
      [&](BlockPricer& pricer, int64_t begin, int64_t end) -> Status {
        for (int64_t b = begin; b < end; ++b) {
          const ArcRange arcs{bounds[b], bounds[b + 1]};
          if (arcs.size() == 0) {
            pricer.AddEmptyBlock();
            continue;
          }
          const VertexId first = static_cast<VertexId>(b * bucket_size);
          GPUTC_RETURN_IF_ERROR(pricer.AddBlock([&](BlockCostModel& model) {
            charge(model, arcs, SourceCursor(g, first));
          }));
        }
        return OkStatus();
      });
}

}  // namespace gputc

#endif  // GPUTC_TC_BLOCK_SKELETON_H_
