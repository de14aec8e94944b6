#ifndef GPUTC_SIM_KERNEL_H_
#define GPUTC_SIM_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "sim/block_cost.h"
#include "sim/device.h"

namespace gputc {

/// Aggregate result of one simulated kernel launch.
struct KernelStats {
  double cycles = 0.0;  // Makespan over SMs.
  double millis = 0.0;  // cycles / clock.
  int64_t num_blocks = 0;
  int64_t supersteps = 0;
  double total_ops = 0.0;
  double total_transactions = 0.0;
  double total_shared_transactions = 0.0;
  double compute_cycles = 0.0;  // Summed over blocks.
  double memory_cycles = 0.0;
  double shared_cycles = 0.0;
  double sync_cycles = 0.0;
  /// Mean SM busy-fraction relative to the makespan, in [0, 1].
  double sm_utilization = 0.0;

  /// Merges another launch into this one (sequential kernels).
  void Accumulate(const KernelStats& other);
};

/// Schedules priced blocks onto SMs and reports the kernel makespan.
///
/// The hardware work-distributor hands the next waiting block to the first
/// SM that frees up; we model exactly that greedy list-scheduling, which is
/// within 2x of optimal and matches real dispatch closely when blocks are
/// plentiful. Blocks run one-at-a-time per SM: concurrency *within* an SM is
/// already folded into BlockCostModel's throughput terms.
class KernelLauncher {
 public:
  explicit KernelLauncher(const DeviceSpec& spec) : spec_(spec) {}

  /// Launches `blocks` in order and returns the aggregate stats.
  KernelStats Launch(const std::vector<BlockCost>& blocks) const;

  /// Launches the blocks of `parts` in order, exactly as Launch would launch
  /// their concatenation, without building it.
  KernelStats LaunchParts(std::span<const std::vector<BlockCost>> parts) const;

  const DeviceSpec& spec() const { return spec_; }

 private:
  DeviceSpec spec_;
};

}  // namespace gputc

#endif  // GPUTC_SIM_KERNEL_H_
