#ifndef GPUTC_TC_BISSON_H_
#define GPUTC_TC_BISSON_H_

#include "tc/counter.h"

namespace gputc {

/// Bisson & Fatica (TPDS 2017): one block per vertex, bitmap-based lookup
/// (paper Figure 1).
///
/// The block owning vertex v first sets a global-memory bitmap bit for every
/// w in N+(v) (cooperative, then __syncthreads). It then walks N+(v) in
/// groups of threads_per_block: each thread takes one neighbor u and scans
/// the whole N+(u), probing the bitmap for each element — so a superstep
/// lasts as long as its largest assigned out-degree, the textbook case of
/// the intra-block BSP imbalance A-direction minimizes. Bitmap probing
/// replaces binary search, so A-order's diversity analysis does not apply
/// (the paper evaluates only A-direction on this algorithm).
class BissonCounter : public SimTriangleCounter {
 public:
  std::string name() const override { return "Bisson"; }
  StatusOr<KernelStats> Price(const DirectedGraph& g, const DeviceSpec& spec,
                              const ExecContext& ctx) const override;
  bool uses_intra_block_sync() const override { return true; }
  bool uses_binary_search() const override { return false; }
};

}  // namespace gputc

#endif  // GPUTC_TC_BISSON_H_
