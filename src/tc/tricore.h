#ifndef GPUTC_TC_TRICORE_H_
#define GPUTC_TC_TRICORE_H_

#include "tc/counter.h"
#include "tc/gunrock.h"

namespace gputc {

/// Hu, Liu & Huang (SC 2018) TriCore: one warp per edge, binary search.
///
/// The warp owning arc (u, v) streams N+(v) in coalesced chunks of
/// warp_size keys; all active lanes then binary search their key in N+(u)
/// simultaneously — the shared-list warp search of the paper's Figure 5,
/// whose coalescing collapses on long lists. Blocks own the arcs of
/// threads_per_block consecutive vertices, so a vertex reordering directly
/// reshapes each block's load and compute/memory mix (A-order's lever). No
/// intra-block synchronization.
///
/// The kSortMerge variant (Section 6.2 / Figure 10 comparison) partitions
/// each merge over the warp: every lane binary searches its segment
/// boundary, then merges (du+dv)/warp_size elements with the usual SIMT
/// divergence penalty.
class TriCoreCounter : public SimTriangleCounter {
 public:
  explicit TriCoreCounter(
      IntersectStrategy strategy = IntersectStrategy::kBinarySearch)
      : strategy_(strategy) {}

  std::string name() const override {
    return strategy_ == IntersectStrategy::kBinarySearch ? "TriCore-bs"
                                                         : "TriCore-sm";
  }
  StatusOr<KernelStats> Price(const DirectedGraph& g, const DeviceSpec& spec,
                              const ExecContext& ctx) const override;
  bool uses_intra_block_sync() const override { return false; }
  bool uses_binary_search() const override {
    return strategy_ == IntersectStrategy::kBinarySearch;
  }

 private:
  IntersectStrategy strategy_;
};

}  // namespace gputc

#endif  // GPUTC_TC_TRICORE_H_
