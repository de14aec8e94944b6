#ifndef GPUTC_TC_FOX_H_
#define GPUTC_TC_FOX_H_

#include <cstdint>
#include <vector>

#include "order/resource_model.h"
#include "tc/counter.h"

namespace gputc {

/// Fox / Green et al. (HPEC 2018): adaptive list intersection with
/// logarithmic radix binning.
///
/// Arcs are stably partitioned into log-radix bins by the number of keys
/// they stream, d~(v), and each bin is executed with a matching granularity
/// — one thread per arc for light bins, one warp per arc (lanes cooperate on
/// the searches) once a bin streams 128 keys or more. Blocks take
/// consecutive tasks within a bin, so the *edge order* determines each
/// block's work set: this is the algorithm the paper reorders edges (not
/// vertices) for (Section 6.4, Figure 15).
class FoxCounter : public SimTriangleCounter {
 public:
  std::string name() const override { return "Fox"; }

  /// Prices with arcs in CSR order.
  StatusOr<KernelStats> Price(const DirectedGraph& g, const DeviceSpec& spec,
                              const ExecContext& ctx) const override;

  /// Counts with arcs processed in `edge_order` (a permutation of arc
  /// indices in CSR order; position i is processed i-th). Radix binning is
  /// stable, so the given order fixes block composition within each bin.
  /// An edge_order that is not a permutation of [0, num_edges) is
  /// InvalidArgument.
  StatusOr<TcResult> TryCountWithEdgeOrder(
      const DirectedGraph& g, const DeviceSpec& spec,
      const std::vector<int64_t>& edge_order, const ExecContext& ctx) const;

  /// TryCountWithEdgeOrder for an order TryAOrderedEdgeOrder built for `g`,
  /// or a cached copy of one. Its arcs already run bin by bin, so it is
  /// neither checked nor binned again: each bin's bounds are found by
  /// binary search. An order of the wrong length is InvalidArgument.
  StatusOr<TcResult> TryCountWithBinnedOrder(
      const DirectedGraph& g, const DeviceSpec& spec,
      const std::vector<int64_t>& binned_order, const ExecContext& ctx) const;

  /// Unconstrained TryCountWithEdgeOrder; CHECK-aborts on error.
  TcResult CountWithEdgeOrder(const DirectedGraph& g, const DeviceSpec& spec,
                              const std::vector<int64_t>& edge_order) const;

  bool uses_intra_block_sync() const override { return false; }
  bool uses_binary_search() const override { return true; }
  ReorderUnit reorder_unit() const override { return ReorderUnit::kEdge; }

  /// Edge-unit A-order matched to this kernel's structure: within each work
  /// bin (whose blocks the kernel forms from consecutive arcs), arcs are
  /// packed by Algorithm 2 keyed on their searched-list length d~(u), so
  /// every block receives a balanced compute/memory mix. This is the edge
  /// ordering Figure 15 evaluates. The result runs bin by bin.
  ///
  /// Built in one pass: a stable counting sort of the arcs into the bins on
  /// the host pool, then A-order on each bin, one pool task per bin, each
  /// polling `ctx`. Opens the "aorder.edges" span, passes the fail point of
  /// that name, and returns ctx's stop status if a bin's packing stops.
  StatusOr<std::vector<int64_t>> TryAOrderedEdgeOrder(
      const DirectedGraph& g, const ResourceModel& model,
      const DeviceSpec& spec, const ExecContext& ctx) const;

  /// Unconstrained TryAOrderedEdgeOrder; CHECK-aborts on error.
  std::vector<int64_t> AOrderedEdgeOrder(const DirectedGraph& g,
                                         const ResourceModel& model,
                                         const DeviceSpec& spec) const;
};

}  // namespace gputc

#endif  // GPUTC_TC_FOX_H_
