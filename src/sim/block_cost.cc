#include "sim/block_cost.h"

#include <algorithm>

#include "util/logging.h"

namespace gputc {

void BlockCostModel::BeginBlock() {
  current_.resize(static_cast<size_t>(spec_.threads_per_block()));
  std::fill_n(current_.begin(), touched_, ThreadWork{});
  touched_ = 0;
  cost_ = BlockCost{};
}

void BlockCostModel::EndSuperstep() { FoldSuperstep(/*charge_sync=*/true); }

void BlockCostModel::FoldSuperstep(bool charge_sync) {
  if (touched_ == 0) {
    if (charge_sync) {
      cost_.sync_cycles += spec_.sync_cost_cycles;
      ++cost_.supersteps;
    }
    return;
  }
  const size_t touched = static_cast<size_t>(touched_);
  const int warp = spec_.warp_size;
  double compute_demand = 0.0;
  double total_transactions = 0.0;
  double total_shared = 0.0;
  double total_ops = 0.0;
  double critical = 0.0;
  for (size_t w = 0; w * warp < touched; ++w) {
    double warp_max_ops = 0.0;
    double warp_transactions = 0.0;
    for (size_t lane = 0; lane < static_cast<size_t>(warp); ++lane) {
      const size_t t = w * warp + lane;
      if (t >= touched) break;
      warp_max_ops = std::max(warp_max_ops, current_[t].compute_ops);
      warp_transactions += current_[t].mem_transactions;
      total_ops += current_[t].compute_ops;
      total_transactions += current_[t].mem_transactions;
      total_shared += current_[t].shared_transactions;
    }
    // Lock-step: the warp retires warp_max_ops instructions regardless of
    // how few lanes actually need them.
    compute_demand += warp_max_ops;
    critical = std::max(
        critical, warp_max_ops + warp_transactions * spec_.mem_latency_cycles /
                                     static_cast<double>(warp));
  }
  const double compute_cycles = compute_demand / spec_.issue_width;
  const double memory_cycles =
      total_transactions / spec_.mem_transactions_per_cycle;
  const double shared_cycles =
      total_shared / spec_.shared_transactions_per_cycle;
  cost_.compute_cycles += compute_cycles;
  cost_.memory_cycles += memory_cycles;
  cost_.shared_cycles += shared_cycles;
  cost_.critical_cycles += critical;
  cost_.total_ops += total_ops;
  cost_.total_transactions += total_transactions;
  cost_.total_shared_transactions += total_shared;
  cost_.cycles +=
      std::max({compute_cycles, memory_cycles, shared_cycles, critical});
  if (charge_sync) {
    cost_.sync_cycles += spec_.sync_cost_cycles;
    ++cost_.supersteps;
  }
  std::fill_n(current_.begin(), touched, ThreadWork{});
  touched_ = 0;
}

BlockCost BlockCostModel::Finish() {
  if (touched_ > 0) FoldSuperstep(/*charge_sync=*/false);
  cost_.cycles += cost_.sync_cycles;
  BlockCost result = cost_;
  cost_ = BlockCost{};
  return result;
}

BlockCost PriceBlock(const DeviceSpec& spec,
                     const std::vector<ThreadWork>& threads) {
  BlockCostModel model(spec);
  model.BeginBlock();
  for (size_t t = 0; t < threads.size(); ++t) {
    model.AddThreadWork(static_cast<int>(t), threads[t]);
  }
  return model.Finish();
}

}  // namespace gputc
