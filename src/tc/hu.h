#ifndef GPUTC_TC_HU_H_
#define GPUTC_TC_HU_H_

#include "tc/counter.h"

namespace gputc {

/// Hu, Guan & Zou (ICDEW 2019): fine-grained task distribution with the
/// "copy-synchronize-search" pattern (paper Figure 2).
///
/// A block walks a contiguous range of directed arcs (u, v). Each superstep,
/// the block first stages the u-lists its threads are about to search into
/// shared memory (coalesced, cooperative), synchronizes, then every thread
/// resolves the wedges of one arc: the d~(v) candidate w's are read
/// sequentially from global memory and each is binary searched in the staged
/// N+(u). Searches in lists of different lengths between two syncs are
/// exactly the imbalance A-direction targets, and the compute/memory mix of
/// a block's arcs is what A-order balances.
///
/// Granularity note: the original kernel assigns one *wedge* per thread; we
/// assign one *arc* (its whole wedge bundle) per thread per superstep, which
/// keeps both analytic drivers (d~ distribution inside a superstep, resource
/// mix inside a block) while making host simulation O(|arcs| + |wedges|)
/// instead of per-wedge event processing.
///
/// Each block owns the arcs of threads_per_block consecutive vertex ids (the
/// paper's bucket B_i, the same bucket size A-order packs), so the vertex
/// ordering fully determines both a block's load and its resource mix.
class HuCounter : public SimTriangleCounter {
 public:
  std::string name() const override { return "Hu"; }
  StatusOr<KernelStats> Price(const DirectedGraph& g, const DeviceSpec& spec,
                              const ExecContext& ctx) const override;
  bool uses_intra_block_sync() const override { return true; }
  bool uses_binary_search() const override { return true; }
};

}  // namespace gputc

#endif  // GPUTC_TC_HU_H_
