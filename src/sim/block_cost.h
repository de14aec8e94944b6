#ifndef GPUTC_SIM_BLOCK_COST_H_
#define GPUTC_SIM_BLOCK_COST_H_

#include <cstdint>
#include <vector>

#include "sim/device.h"

namespace gputc {

/// Work one thread performs between two synchronization points (or in total
/// for non-BSP kernels): straight-line compute operations plus global-memory
/// transactions attributed to that thread.
struct ThreadWork {
  double compute_ops = 0.0;
  double mem_transactions = 0.0;     // Global memory.
  double shared_transactions = 0.0;  // Shared memory (separate pipeline).

  ThreadWork& operator+=(const ThreadWork& other) {
    compute_ops += other.compute_ops;
    mem_transactions += other.mem_transactions;
    shared_transactions += other.shared_transactions;
    return *this;
  }
};

/// Cost of one executed block.
struct BlockCost {
  double cycles = 0.0;           // Modelled execution time of the block.
  double compute_cycles = 0.0;   // Compute-throughput component.
  double memory_cycles = 0.0;    // Global-memory throughput component.
  double shared_cycles = 0.0;    // Shared-memory throughput component.
  double critical_cycles = 0.0;  // Longest single-warp critical path.
  double sync_cycles = 0.0;      // Synchronization overhead.
  int64_t supersteps = 0;
  double total_ops = 0.0;
  double total_transactions = 0.0;
  double total_shared_transactions = 0.0;
};

/// Accumulates per-thread work for one block and prices it.
///
/// Model (an executable version of the paper's two analytic models):
///  * Threads are packed into warps of warp_size; lock-step execution makes a
///    warp's compute time the max over its lanes (thread divergence).
///  * A superstep costs max(compute_demand, memory_demand, critical_path)
///    + sync_cost:
///      - compute_demand = sum over warps of warp-max compute / issue_width
///        -> intra-block imbalance raises warp maxima (intra-block BSP
///           model, Eq. 1);
///      - memory_demand = total transactions / mem_transactions_per_cycle
///        -> a block overloaded with memory-intensive tasks is memory-bound
///           while its compute units idle (resource balance model, Eq. 3);
///      - critical_path = slowest single warp executed alone (its compute
///        plus its transactions at memory latency spacing), which dominates
///        when too few warps remain to hide latency.
///  * Non-BSP kernels use one implicit superstep with zero sync cost.
///
/// Pricing costs O(touched lanes), not O(threads_per_block): the model keeps
/// the highest lane touched in the open superstep, and a fold reads and
/// clears only that prefix. Lanes past it hold exact zeros, which change no
/// sum, warp maximum or critical path.
class BlockCostModel {
 public:
  explicit BlockCostModel(const DeviceSpec& spec) : spec_(spec) {}

  /// Starts a new block. Any previously accumulated work is discarded.
  void BeginBlock();

  /// Adds `work` to thread `thread_idx` (0-based within the block) of the
  /// current superstep. thread_idx must be < threads_per_block.
  void AddThreadWork(int thread_idx, const ThreadWork& work);

  /// Adds the same `work` to each of threads [first, first + count): the
  /// lane-uniform charge of a cooperative warp or block. Every lane gets the
  /// addends AddThreadWork would give it, in the same order. The range must
  /// lie within threads_per_block.
  void AddThreadsWork(int first, int count, const ThreadWork& work);

  /// Closes the current superstep (BSP kernels call this at every
  /// __syncthreads()).
  void EndSuperstep();

  /// Prices the block. Implicitly closes a trailing superstep that has
  /// accumulated work. Non-BSP kernels simply never call EndSuperstep() and
  /// pay no sync cost.
  BlockCost Finish();

  const DeviceSpec& spec() const { return spec_; }

 private:
  void FoldSuperstep(bool charge_sync);

  DeviceSpec spec_;
  std::vector<ThreadWork> current_;  // Per-thread work in the open superstep.
  int touched_ = 0;  // Lanes [touched_, threads_per_block) are all zero.
  BlockCost cost_;
};

/// Convenience: prices a single-superstep block from per-thread work.
BlockCost PriceBlock(const DeviceSpec& spec,
                     const std::vector<ThreadWork>& threads);

}  // namespace gputc

#endif  // GPUTC_SIM_BLOCK_COST_H_
