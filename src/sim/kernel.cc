#include "sim/kernel.h"

#include <algorithm>
#include <queue>

#include "util/logging.h"

namespace gputc {

void KernelStats::Accumulate(const KernelStats& other) {
  cycles += other.cycles;
  millis += other.millis;
  num_blocks += other.num_blocks;
  supersteps += other.supersteps;
  total_ops += other.total_ops;
  total_transactions += other.total_transactions;
  total_shared_transactions += other.total_shared_transactions;
  compute_cycles += other.compute_cycles;
  memory_cycles += other.memory_cycles;
  shared_cycles += other.shared_cycles;
  sync_cycles += other.sync_cycles;
  // Utilization of the combined launch is the busy-time weighted mean.
  sm_utilization = cycles > 0.0
                       ? (sm_utilization * (cycles - other.cycles) +
                          other.sm_utilization * other.cycles) /
                             cycles
                       : 0.0;
}

KernelStats KernelLauncher::Launch(const std::vector<BlockCost>& blocks) const {
  return LaunchParts({&blocks, 1});
}

KernelStats KernelLauncher::LaunchParts(
    std::span<const std::vector<BlockCost>> parts) const {
  KernelStats stats;
  for (const std::vector<BlockCost>& blocks : parts) {
    stats.num_blocks += static_cast<int64_t>(blocks.size());
  }
  if (stats.num_blocks == 0) return stats;

  // Min-heap of SM finish times: greedy "first free SM takes next block".
  std::priority_queue<double, std::vector<double>, std::greater<>> sms;
  for (int s = 0; s < spec_.num_sms; ++s) sms.push(0.0);

  double busy = 0.0;
  double makespan = 0.0;
  for (const std::vector<BlockCost>& blocks : parts) {
    for (const BlockCost& b : blocks) {
      const double start = sms.top();
      sms.pop();
      const double finish = start + b.cycles;
      sms.push(finish);
      makespan = std::max(makespan, finish);
      busy += b.cycles;

      stats.supersteps += b.supersteps;
      stats.total_ops += b.total_ops;
      stats.total_transactions += b.total_transactions;
      stats.total_shared_transactions += b.total_shared_transactions;
      stats.compute_cycles += b.compute_cycles;
      stats.memory_cycles += b.memory_cycles;
      stats.shared_cycles += b.shared_cycles;
      stats.sync_cycles += b.sync_cycles;
    }
  }
  stats.cycles = makespan;
  stats.millis = makespan / (spec_.clock_ghz * 1e6);
  stats.sm_utilization =
      makespan > 0.0 ? busy / (makespan * spec_.num_sms) : 0.0;
  return stats;
}

}  // namespace gputc
