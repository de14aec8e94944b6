#include "tc/fox.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "order/aorder.h"
#include "tc/block_skeleton.h"
#include "tc/cost_rules.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gputc {
namespace {

/// Bins whose arcs stream at least this many keys run one warp per arc.
constexpr int64_t kWarpThreshold = 128;
constexpr size_t kMaxBins = 48;

/// The span, fail point and poll site of the edge-order build.
constexpr std::string_view kEdgeOrderSite = "aorder.edges";

/// Bin b of an order that runs bin by bin is its positions
/// [bounds[b], bounds[b + 1]).
using BinBounds = std::array<int64_t, kMaxBins + 1>;

/// The log-radix bin of arc `pos`, by its work *volume* (keys streamed,
/// d~(v) + 1) — the quantity the adaptive granularity needs — while the
/// searched-list length d~(u), which sets an arc's compute/memory character,
/// still varies freely inside a bin. That residual diversity is exactly
/// what an edge reordering can balance across blocks (Section 6.4 / Figure
/// 15).
size_t ArcBin(const DirectedGraph& g, int64_t pos) {
  const auto volume = static_cast<uint64_t>(
      g.out_degree(g.adjacency()[static_cast<size_t>(pos)]) + 1);
  return std::min<size_t>(kMaxBins - 1, std::bit_width(volume) - 1);
}

/// One granularity per bin, a pure function of the bin's radix level (every
/// arc in the bin streams ~2^level keys): cooperative warps once a warp's
/// worth of keys amortizes.
bool WarpPerArc(size_t bin) {
  return (int64_t{1} << std::min<size_t>(bin, 62)) >= kWarpThreshold;
}

int64_t TasksPerBlock(size_t bin, const DeviceSpec& spec) {
  return WarpPerArc(bin) ? spec.warps_per_block : spec.threads_per_block();
}

// An arc index and a searched-list length share one type, so a bin's spent
// search lengths can hold its arcs (TryAOrderedEdgeOrder).
static_assert(std::is_same_v<EdgeCount, int64_t>);

/// Arcs (CSR indices) grouped bin by bin, in their given order within each
/// bin.
struct BinnedArcs {
  std::vector<int64_t> arcs;
  BinBounds bounds{};
};

/// Turns per-bin counts (bin-major, range-minor) into each range's first
/// slot per bin, and fills `bounds`.
void StartSlots(std::span<std::array<int64_t, kMaxBins>> counts,
                BinBounds& bounds) {
  int64_t next = 0;
  for (size_t b = 0; b < kMaxBins; ++b) {
    bounds[b] = next;
    for (std::array<int64_t, kMaxBins>& count : counts) {
      const int64_t in_range = count[b];
      count[b] = next;
      next += in_range;
    }
  }
  bounds[kMaxBins] = next;
}

/// Sources a counting-sort range walks between two polls of its context.
constexpr int64_t kPollVertices = 4096;

/// Stable counting sort of the arcs, in CSR order, into their bins on the
/// host pool. Each range of source vertices counts its arcs per bin; the
/// prefix sum over (bin, range) gives each range its slots, and each range
/// scatters its arcs there, so the result is the sequential scan's. When
/// `search` is non-null it receives each sorted arc's searched-list length
/// d~(u), slot for slot. Polls `ctx`, naming `site`, as it goes.
StatusOr<BinnedArcs> BinCsrArcs(const DirectedGraph& g, const ExecContext& ctx,
                                std::string_view site,
                                std::vector<EdgeCount>* search) {
  const std::vector<EdgeCount>& offsets = g.offsets();
  const ParallelSplit split = SplitByArcs(offsets);
  // Calls visit(u, pos) for every arc of the task's sources in CSR order.
  const auto walk = [&](const ParallelTask& task, auto&& visit) -> Status {
    for (int64_t u = task.begin; u < task.end; ++u) {
      if ((u - task.begin) % kPollVertices == 0 && ctx.stop_requested()) {
        return ctx.CheckContinue(site);
      }
      for (int64_t pos = offsets[u]; pos < offsets[u + 1]; ++pos) {
        visit(u, pos);
      }
    }
    return OkStatus();
  };
  std::vector<std::array<int64_t, kMaxBins>> slots(
      static_cast<size_t>(split.tasks()));
  GPUTC_RETURN_IF_ERROR(ParallelFor(split, [&](const ParallelTask& task) {
    std::array<int64_t, kMaxBins>& count = slots[task.index];
    count.fill(0);
    return walk(task, [&](int64_t, int64_t pos) { ++count[ArcBin(g, pos)]; });
  }));
  BinnedArcs binned;
  StartSlots(slots, binned.bounds);
  binned.arcs.resize(static_cast<size_t>(g.num_edges()));
  if (search != nullptr) {
    GPUTC_RETURN_IF_ERROR(ctx.CheckContinue(site));
    search->resize(binned.arcs.size());
  }
  GPUTC_RETURN_IF_ERROR(ctx.CheckContinue(site));
  GPUTC_RETURN_IF_ERROR(ParallelFor(split, [&](const ParallelTask& task) {
    std::array<int64_t, kMaxBins>& next = slots[task.index];
    return walk(task, [&](int64_t u, int64_t pos) {
      const auto at = static_cast<size_t>(next[ArcBin(g, pos)]++);
      binned.arcs[at] = pos;
      if (search != nullptr) (*search)[at] = offsets[u + 1] - offsets[u];
    });
  }));
  return binned;
}

/// Stable counting sort of a caller's `order` into the bins. An order that
/// is not a permutation of the arcs is InvalidArgument.
StatusOr<BinnedArcs> BinCallerOrder(const DirectedGraph& g,
                                    const std::vector<int64_t>& order) {
  const int64_t arcs = g.num_edges();
  if (static_cast<int64_t>(order.size()) != arcs) {
    return InvalidArgumentError(
        "edge order has " + std::to_string(order.size()) +
        " entries but the graph has " + std::to_string(arcs) + " arcs");
  }
  std::vector<char> seen(static_cast<size_t>(arcs));
  std::array<int64_t, kMaxBins> next{};
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
    seen[static_cast<size_t>(pos)] = 1;
    ++next[ArcBin(g, pos)];
  }
  BinnedArcs binned;
  StartSlots(std::span(&next, 1), binned.bounds);
  binned.arcs.resize(order.size());
  for (int64_t pos : order) {
    binned.arcs[static_cast<size_t>(next[ArcBin(g, pos)]++)] = pos;
  }
  return binned;
}

/// The bin bounds of an order whose arcs already run bin by bin.
BinBounds BoundsOfBinnedOrder(const DirectedGraph& g,
                              std::span<const int64_t> order) {
  BinBounds bounds{};
  auto begin = order.begin();
  for (size_t b = 1; b < kMaxBins; ++b) {
    begin = std::partition_point(begin, order.end(), [&](int64_t pos) {
      return ArcBin(g, pos) < b;
    });
    bounds[b] = begin - order.begin();
  }
  bounds[kMaxBins] = static_cast<int64_t>(order.size());
  return bounds;
}

/// Prices the kernel over `order`, whose bin b is [bounds[b], bounds[b+1]),
/// on `skeleton`: each bin's tasks form blocks of TasksPerBlock consecutive
/// arcs, and the bins' blocks follow one another in bin order.
StatusOr<KernelStats> PriceBins(BlockSkeleton& skeleton,
                                const DirectedGraph& g, const DeviceSpec& spec,
                                std::span<const int64_t> order,
                                const BinBounds& bounds) {
  const std::vector<VertexId> sources = ArcSources(g);
  // Block k takes positions [blocks[k].start, blocks[k].start + arcs[k + 1]
  // - arcs[k]) of the order, all in bin blocks[k].bin.
  struct Block {
    size_t bin;
    int64_t start;
  };
  std::vector<Block> blocks;
  std::vector<int64_t> arcs = {0};
  for (size_t b = 0; b < kMaxBins; ++b) {
    const int64_t tasks_per_block = TasksPerBlock(b, spec);
    for (int64_t start = bounds[b]; start < bounds[b + 1];
         start += tasks_per_block) {
      blocks.push_back(Block{b, start});
      arcs.push_back(arcs.back() +
                     std::min(tasks_per_block, bounds[b + 1] - start));
    }
  }
  return skeleton.Launch(
      arcs, [&](BlockPricer& pricer, int64_t begin, int64_t end) -> Status {
        for (int64_t k = begin; k < end; ++k) {
          const Block& block = blocks[k];
          const bool warp_per_arc = WarpPerArc(block.bin);
          const int64_t block_end = block.start + (arcs[k + 1] - arcs[k]);
          GPUTC_RETURN_IF_ERROR(pricer.AddBlock([&](BlockCostModel& model) {
            for (int64_t i = block.start; i < block_end; ++i) {
              const auto pos = static_cast<size_t>(order[i]);
              const int64_t du = g.out_degree(sources[pos]);
              const int64_t dv = g.out_degree(g.adjacency()[pos]);
              const int task = static_cast<int>(i - block.start);
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

}  // namespace

StatusOr<std::vector<int64_t>> FoxCounter::TryAOrderedEdgeOrder(
    const DirectedGraph& g, const ResourceModel& model, const DeviceSpec& spec,
    const ExecContext& ctx) const {
  Span span = StartSpan(ctx, kEdgeOrderSite);
  const Status entry = [&]() -> Status {
    GPUTC_INJECT_FAULT(kEdgeOrderSite);
    return ctx.CheckContinue(kEdgeOrderSite);
  }();
  if (!entry.ok()) {
    span.SetStatus(entry);
    return entry;
  }
  std::vector<EdgeCount> search_lengths;
  StatusOr<BinnedArcs> sorted =
      BinCsrArcs(g, ctx, kEdgeOrderSite, &search_lengths);
  if (!sorted.ok()) {
    span.SetStatus(sorted.status());
    return sorted.status();
  }
  BinnedArcs& binned = *sorted;

  // Bins no longer than one block keep CSR order; the rest are packed, the
  // largest first so the longest task starts first.
  std::vector<size_t> packed;
  for (size_t b = 0; b < kMaxBins; ++b) {
    if (binned.bounds[b + 1] - binned.bounds[b] > TasksPerBlock(b, spec)) {
      packed.push_back(b);
    }
  }
  const auto bin_size = [&](size_t b) {
    return binned.bounds[b + 1] - binned.bounds[b];
  };
  std::stable_sort(packed.begin(), packed.end(), [&](size_t a, size_t b) {
    return bin_size(a) > bin_size(b);
  });
  ParallelSplit split = SplitByArcs(binned.bounds);
  split.threads =
      std::max(1, std::min(split.threads, static_cast<int>(packed.size())));
  split.bounds.resize(packed.size() + 1);
  std::iota(split.bounds.begin(), split.bounds.end(), int64_t{0});
  span.SetAttr("arcs", g.num_edges());
  span.SetAttr("bins", static_cast<int64_t>(packed.size()));
  span.SetAttr("threads", static_cast<int64_t>(split.threads));

  // A-order polls a copy without the tracer: pool threads never touch it.
  ExecContext poll = ctx;
  poll.tracer = nullptr;
  const Status status = ParallelFor(split, [&](const ParallelTask& task) {
    const size_t b = packed[static_cast<size_t>(task.index)];
    GPUTC_RETURN_IF_ERROR(poll.CheckContinue(kEdgeOrderSite));
    // Pack this bin's arcs so every block (TasksPerBlock consecutive tasks)
    // gets a balanced mix of searched-list lengths.
    const auto first = static_cast<size_t>(binned.bounds[b]);
    const auto size = static_cast<size_t>(bin_size(b));
    AOrderOptions options;
    options.bucket_size = static_cast<int>(TasksPerBlock(b, spec));
    options.exec = &poll;
    AOrderResult result = AOrder(
        std::span<const EdgeCount>(search_lengths).subspan(first, size), model,
        options);
    if (result.aborted) return poll.CheckContinue(kEdgeOrderSite);
    // The bin's search lengths are spent: they hold its arcs while each
    // scatters to its packed position perm[i].
    int64_t* bin = binned.arcs.data() + first;
    int64_t* spent = search_lengths.data() + first;
    std::copy_n(bin, size, spent);
    for (size_t i = 0; i < size; ++i) bin[result.perm[i]] = spent[i];
    return OkStatus();
  });
  if (!status.ok()) {
    span.SetStatus(status);
    return status;
  }
  return std::move(binned.arcs);
}

std::vector<int64_t> FoxCounter::AOrderedEdgeOrder(
    const DirectedGraph& g, const ResourceModel& model,
    const DeviceSpec& spec) const {
  StatusOr<std::vector<int64_t>> order =
      TryAOrderedEdgeOrder(g, model, spec, ExecContext{});
  GPUTC_CHECK(order.ok()) << "Fox::AOrderedEdgeOrder failed: "
                          << order.status().ToString();
  return *std::move(order);
}

StatusOr<KernelStats> FoxCounter::Price(const DirectedGraph& g,
                                        const DeviceSpec& spec,
                                        const ExecContext& ctx) const {
  BlockSkeleton skeleton(spec, ctx, site());
  GPUTC_ASSIGN_OR_RETURN(const BinnedArcs binned,
                         BinCsrArcs(g, ctx, site(), nullptr));
  return PriceBins(skeleton, g, spec, binned.arcs, binned.bounds);
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
  return TryCountPricedBy(
      g, ctx, [&](const ExecContext& tc_ctx) -> StatusOr<KernelStats> {
    BlockSkeleton skeleton(spec, tc_ctx, site());
    GPUTC_ASSIGN_OR_RETURN(const BinnedArcs binned,
                           BinCallerOrder(g, edge_order));
    return PriceBins(skeleton, g, spec, binned.arcs, binned.bounds);
  });
}

StatusOr<TcResult> FoxCounter::TryCountWithBinnedOrder(
    const DirectedGraph& g, const DeviceSpec& spec,
    const std::vector<int64_t>& binned_order, const ExecContext& ctx) const {
  if (static_cast<int64_t>(binned_order.size()) != g.num_edges()) {
    return InvalidArgumentError(
        "binned edge order has " + std::to_string(binned_order.size()) +
        " entries but the graph has " + std::to_string(g.num_edges()) +
        " arcs");
  }
  return TryCountPricedBy(g, ctx, [&](const ExecContext& tc_ctx) {
    BlockSkeleton skeleton(spec, tc_ctx, site());
    return PriceBins(skeleton, g, spec, binned_order,
                     BoundsOfBinnedOrder(g, binned_order));
  });
}

}  // namespace gputc
