#include "tc/fox.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "order/aorder.h"
#include "tc/block_skeleton.h"
#include "tc/cost_rules.h"
#include "util/logging.h"

namespace gputc {
namespace {

/// Bins whose arcs stream at least this many keys run one warp per arc.
constexpr int64_t kWarpThreshold = 128;
constexpr int kMaxBins = 48;

int RadixBin(int64_t work) {
  int bin = 0;
  while (work > 1) {
    work >>= 1;
    ++bin;
  }
  return bin;
}

/// One granularity per bin, a pure function of the bin's radix level (every
/// arc in the bin streams ~2^level keys): cooperative warps once a warp's
/// worth of keys amortizes.
bool WarpPerArc(size_t bin) {
  return (int64_t{1} << std::min<size_t>(bin, 62)) >= kWarpThreshold;
}

size_t TasksPerBlock(size_t bin, const DeviceSpec& spec) {
  return static_cast<size_t>(WarpPerArc(bin) ? spec.warps_per_block
                                             : spec.threads_per_block());
}

/// Stable log-radix binning of the arcs (CSR indices) in `order`. Arcs are
/// binned by their work *volume* (keys streamed, d~(v)) — the quantity the
/// adaptive granularity needs — while the searched-list length d~(u), which
/// sets an arc's compute/memory character, still varies freely inside a
/// bin. That residual diversity is exactly what an edge reordering can
/// balance across blocks (Section 6.4 / Figure 15). An order that is not a
/// permutation of the arcs is InvalidArgument.
StatusOr<std::vector<std::vector<int64_t>>> RadixBins(
    const DirectedGraph& g, const std::vector<int64_t>& order) {
  const int64_t arcs = g.num_edges();
  if (static_cast<int64_t>(order.size()) != arcs) {
    return InvalidArgumentError(
        "edge order has " + std::to_string(order.size()) +
        " entries but the graph has " + std::to_string(arcs) + " arcs");
  }
  std::vector<bool> seen(static_cast<size_t>(arcs));
  std::vector<std::vector<int64_t>> bins(kMaxBins);
  for (int64_t pos : order) {
    if (pos < 0 || pos >= arcs) {
      return InvalidArgumentError("edge order entry " + std::to_string(pos) +
                                  " is outside [0, " + std::to_string(arcs) +
                                  ")");
    }
    if (seen[static_cast<size_t>(pos)]) {
      return InvalidArgumentError("edge order entry " + std::to_string(pos) +
                                  " appears more than once");
    }
    seen[static_cast<size_t>(pos)] = true;
    const int64_t volume =
        g.out_degree(g.adjacency()[static_cast<size_t>(pos)]) + 1;
    bins[static_cast<size_t>(std::min(kMaxBins - 1, RadixBin(volume)))]
        .push_back(pos);
  }
  return bins;
}

std::vector<int64_t> CsrOrder(const DirectedGraph& g) {
  std::vector<int64_t> order(static_cast<size_t>(g.num_edges()));
  std::iota(order.begin(), order.end(), int64_t{0});
  return order;
}

}  // namespace

std::vector<int64_t> FoxCounter::AOrderedEdgeOrder(
    const DirectedGraph& g, const ResourceModel& model,
    const DeviceSpec& spec) const {
  const std::vector<VertexId> sources = ArcSources(g);
  const std::vector<std::vector<int64_t>> bins = *RadixBins(g, CsrOrder(g));
  std::vector<int64_t> order;
  order.reserve(sources.size());
  for (size_t b = 0; b < bins.size(); ++b) {
    const std::vector<int64_t>& bin = bins[b];
    const size_t tasks_per_block = TasksPerBlock(b, spec);
    if (bin.size() <= tasks_per_block) {
      order.insert(order.end(), bin.begin(), bin.end());
      continue;
    }
    // Pack this bin's arcs so every block (tasks_per_block consecutive
    // tasks) gets a balanced mix of searched-list lengths.
    std::vector<EdgeCount> search_lengths(bin.size());
    for (size_t i = 0; i < bin.size(); ++i) {
      search_lengths[i] = g.out_degree(sources[static_cast<size_t>(bin[i])]);
    }
    AOrderOptions options;
    options.bucket_size = static_cast<int>(tasks_per_block);
    const AOrderResult packed = AOrder(search_lengths, model, options);
    std::vector<int64_t> bin_order(bin.size());
    for (size_t i = 0; i < bin.size(); ++i) {
      bin_order[packed.perm[i]] = bin[i];
    }
    order.insert(order.end(), bin_order.begin(), bin_order.end());
  }
  return order;
}

StatusOr<KernelStats> FoxCounter::Price(const DirectedGraph& g,
                                        const DeviceSpec& spec,
                                        const ExecContext& ctx) const {
  return PriceInOrder(g, spec, CsrOrder(g), ctx);
}

TcResult FoxCounter::CountWithEdgeOrder(
    const DirectedGraph& g, const DeviceSpec& spec,
    const std::vector<int64_t>& edge_order) const {
  StatusOr<TcResult> result =
      TryCountWithEdgeOrder(g, spec, edge_order, ExecContext{});
  GPUTC_CHECK(result.ok()) << "Fox::CountWithEdgeOrder failed: "
                           << result.status().ToString();
  return *std::move(result);
}

StatusOr<TcResult> FoxCounter::TryCountWithEdgeOrder(
    const DirectedGraph& g, const DeviceSpec& spec,
    const std::vector<int64_t>& edge_order, const ExecContext& ctx) const {
  return TryCountPricedBy(g, ctx, [&](const ExecContext& tc_ctx) {
    return PriceInOrder(g, spec, edge_order, tc_ctx);
  });
}

StatusOr<KernelStats> FoxCounter::PriceInOrder(
    const DirectedGraph& g, const DeviceSpec& spec,
    const std::vector<int64_t>& edge_order, const ExecContext& ctx) const {
  BlockSkeleton skeleton(spec, ctx, site());
  GPUTC_ASSIGN_OR_RETURN(const std::vector<std::vector<int64_t>> bins,
                         RadixBins(g, edge_order));
  const std::vector<VertexId> sources = ArcSources(g);
  // Block k takes tasks [start, start + arcs[k + 1] - arcs[k]) of bin
  // blocks[k].bin; the bins' blocks follow one another in bin order.
  struct Block {
    size_t bin;
    size_t start;
  };
  std::vector<Block> blocks;
  std::vector<int64_t> arcs = {0};
  for (size_t b = 0; b < bins.size(); ++b) {
    const size_t tasks_per_block = TasksPerBlock(b, spec);
    for (size_t start = 0; start < bins[b].size(); start += tasks_per_block) {
      blocks.push_back(Block{b, start});
      arcs.push_back(arcs.back() + static_cast<int64_t>(std::min(
                                       tasks_per_block, bins[b].size() - start)));
    }
  }
  return skeleton.Launch(
      arcs, [&](BlockPricer& pricer, int64_t begin, int64_t end) -> Status {
        for (int64_t k = begin; k < end; ++k) {
          const std::vector<int64_t>& bin = bins[blocks[k].bin];
          const bool warp_per_arc = WarpPerArc(blocks[k].bin);
          const size_t block_start = blocks[k].start;
          const size_t block_end =
              block_start + static_cast<size_t>(arcs[k + 1] - arcs[k]);
          GPUTC_RETURN_IF_ERROR(pricer.AddBlock([&](BlockCostModel& model) {
            for (size_t i = block_start; i < block_end; ++i) {
              const size_t pos = static_cast<size_t>(bin[i]);
              const int64_t du = g.out_degree(sources[pos]);
              const int64_t dv = g.out_degree(g.adjacency()[pos]);
              const int task = static_cast<int>(i - block_start);
              if (warp_per_arc) {
                ChargeWarpSearch(model, task, du, dv, spec);
              } else {
                ThreadWork work = SequentialScan(dv, spec);
                work += BinarySearchBatch(dv, du, /*shared=*/false, spec);
                model.AddThreadWork(task, work);
              }
            }
          }));
        }
        return OkStatus();
      });
}

}  // namespace gputc
