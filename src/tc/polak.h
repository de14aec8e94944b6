#ifndef GPUTC_TC_POLAK_H_
#define GPUTC_TC_POLAK_H_

#include "tc/counter.h"

namespace gputc {

/// Polak (IPDPSW 2016): the basic thread-per-edge parallelization.
///
/// Each thread owns one arc (u, v) and binary searches every element of
/// N+(v) in N+(u) independently in global memory — no cooperation, no
/// synchronization. Serves as the plain baseline the later algorithms
/// improve on.
class PolakCounter : public SimTriangleCounter {
 public:
  std::string name() const override { return "Polak"; }
  StatusOr<KernelStats> Price(const DirectedGraph& g, const DeviceSpec& spec,
                              const ExecContext& ctx) const override;
  bool uses_intra_block_sync() const override { return false; }
  bool uses_binary_search() const override { return true; }
};

}  // namespace gputc

#endif  // GPUTC_TC_POLAK_H_
