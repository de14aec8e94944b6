#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/block_cost.h"
#include "sim/device.h"
#include "util/random.h"

namespace gputc {
namespace {

DeviceSpec Spec() { return DeviceSpec::TitanXpLike(); }

TEST(BlockCostTest, EmptyBlockCostsNothing) {
  BlockCostModel model(Spec());
  model.BeginBlock();
  const BlockCost cost = model.Finish();
  EXPECT_EQ(cost.cycles, 0.0);
  EXPECT_EQ(cost.supersteps, 0);
}

TEST(BlockCostTest, ComputeBoundBlock) {
  const DeviceSpec spec = Spec();
  std::vector<ThreadWork> threads(static_cast<size_t>(spec.threads_per_block()));
  for (auto& t : threads) t.compute_ops = 100.0;
  const BlockCost cost = PriceBlock(spec, threads);
  // 8 warps x 100 warp-max ops / issue_width 4 = 200 compute cycles; memory
  // is zero, so compute dominates.
  EXPECT_DOUBLE_EQ(cost.compute_cycles, 200.0);
  EXPECT_DOUBLE_EQ(cost.cycles, 200.0);
}

TEST(BlockCostTest, MemoryBoundBlock) {
  const DeviceSpec spec = Spec();
  std::vector<ThreadWork> threads(static_cast<size_t>(spec.threads_per_block()));
  for (auto& t : threads) t.mem_transactions = 10.0;
  const BlockCost cost = PriceBlock(spec, threads);
  EXPECT_DOUBLE_EQ(cost.memory_cycles,
                   256.0 * 10.0 / spec.mem_transactions_per_cycle);
  EXPECT_GE(cost.cycles, cost.memory_cycles);
}

TEST(BlockCostTest, SharedMemoryIsItsOwnPipeline) {
  const DeviceSpec spec = Spec();
  std::vector<ThreadWork> threads(static_cast<size_t>(spec.threads_per_block()));
  for (auto& t : threads) t.shared_transactions = 16.0;
  const BlockCost cost = PriceBlock(spec, threads);
  EXPECT_DOUBLE_EQ(cost.shared_cycles,
                   256.0 * 16.0 / spec.shared_transactions_per_cycle);
  EXPECT_DOUBLE_EQ(cost.memory_cycles, 0.0);
  EXPECT_GE(cost.cycles, cost.shared_cycles);
}

TEST(BlockCostTest, WarpDivergenceChargesWarpMax) {
  const DeviceSpec spec = Spec();
  // One lane does 320 ops, the rest idle: the warp still retires 320.
  std::vector<ThreadWork> one_lane(static_cast<size_t>(spec.threads_per_block()));
  one_lane[0].compute_ops = 320.0;

  // The same total work spread over a warp's 32 lanes: 10 each.
  std::vector<ThreadWork> spread(static_cast<size_t>(spec.threads_per_block()));
  for (int lane = 0; lane < spec.warp_size; ++lane) {
    spread[static_cast<size_t>(lane)].compute_ops = 10.0;
  }

  const BlockCost imbalanced = PriceBlock(spec, one_lane);
  const BlockCost balanced = PriceBlock(spec, spread);
  EXPECT_GT(imbalanced.cycles, 10.0 * balanced.cycles);
}

TEST(BlockCostTest, MixingResourcesBeatsSegregation) {
  const DeviceSpec spec = Spec();
  const int n = spec.threads_per_block();
  // Block A: all memory-heavy. Block B: all compute-heavy.
  std::vector<ThreadWork> mem_block(static_cast<size_t>(n));
  std::vector<ThreadWork> comp_block(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    mem_block[static_cast<size_t>(i)].mem_transactions = 8.0;
    comp_block[static_cast<size_t>(i)].compute_ops = 32.0;
  }
  const double segregated = PriceBlock(spec, mem_block).cycles +
                            PriceBlock(spec, comp_block).cycles;

  // Two mixed blocks with the same total work: half the lanes of each warp
  // memory-heavy, half compute-heavy.
  std::vector<ThreadWork> mixed(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      mixed[static_cast<size_t>(i)].mem_transactions = 8.0;
    } else {
      mixed[static_cast<size_t>(i)].compute_ops = 32.0;
    }
  }
  const double mixed_total = 2.0 * PriceBlock(spec, mixed).cycles;
  // The resource-balance effect the paper exploits: max(C,M) per block makes
  // diverse blocks strictly cheaper than segregated ones.
  EXPECT_LT(mixed_total, segregated);
}

TEST(BlockCostTest, SuperstepsChargeSyncAndMax) {
  const DeviceSpec spec = Spec();
  BlockCostModel model(spec);
  model.BeginBlock();
  ThreadWork w;
  w.compute_ops = 4.0;
  model.AddThreadWork(0, w);
  model.EndSuperstep();
  model.AddThreadWork(0, w);
  model.EndSuperstep();
  const BlockCost cost = model.Finish();
  EXPECT_EQ(cost.supersteps, 2);
  EXPECT_DOUBLE_EQ(cost.sync_cycles, 2.0 * spec.sync_cost_cycles);
  EXPECT_GT(cost.cycles, cost.sync_cycles);
}

TEST(BlockCostTest, BspImbalanceAcrossSuperstepsCostsMore) {
  const DeviceSpec spec = Spec();
  const size_t n = static_cast<size_t>(spec.threads_per_block());
  // Balanced: every thread does 16 ops in each of 2 supersteps.
  BlockCostModel balanced(spec);
  balanced.BeginBlock();
  for (int step = 0; step < 2; ++step) {
    for (size_t t = 0; t < n; ++t) {
      ThreadWork w;
      w.compute_ops = 16.0;
      balanced.AddThreadWork(static_cast<int>(t), w);
    }
    balanced.EndSuperstep();
  }
  // Imbalanced: same total, but one straggler lane per warp does 32x work.
  BlockCostModel imbalanced(spec);
  imbalanced.BeginBlock();
  for (int step = 0; step < 2; ++step) {
    for (size_t t = 0; t < n; ++t) {
      ThreadWork w;
      w.compute_ops = (t % 32 == 0) ? 512.0 : 0.0;
      imbalanced.AddThreadWork(static_cast<int>(t), w);
    }
    imbalanced.EndSuperstep();
  }
  EXPECT_GT(imbalanced.Finish().cycles, balanced.Finish().cycles);
}

TEST(BlockCostTest, FinishResetsState) {
  const DeviceSpec spec = Spec();
  BlockCostModel model(spec);
  model.BeginBlock();
  ThreadWork w;
  w.compute_ops = 50.0;
  model.AddThreadWork(0, w);
  const BlockCost first = model.Finish();
  EXPECT_GT(first.cycles, 0.0);
  model.BeginBlock();
  const BlockCost second = model.Finish();
  EXPECT_EQ(second.cycles, 0.0);
}

/// The block model in its dense form, the reference for the touched-prefix
/// fold: BeginBlock zeroes every lane, and each fold scans, then clears, all
/// threads_per_block lanes.
class DenseReferenceModel {
 public:
  explicit DenseReferenceModel(const DeviceSpec& spec) : spec_(spec) {}

  void BeginBlock() {
    current_.assign(static_cast<size_t>(spec_.threads_per_block()),
                    ThreadWork{});
    dirty_ = false;
    cost_ = BlockCost{};
  }

  void AddThreadWork(int thread_idx, const ThreadWork& work) {
    if (current_.empty()) BeginBlock();
    current_[static_cast<size_t>(thread_idx)] += work;
    dirty_ = true;
  }

  void EndSuperstep() { Fold(/*charge_sync=*/true); }

  BlockCost Finish() {
    if (dirty_) Fold(/*charge_sync=*/false);
    cost_.cycles += cost_.sync_cycles;
    const BlockCost result = cost_;
    cost_ = BlockCost{};
    dirty_ = false;
    return result;
  }

 private:
  void Fold(bool charge_sync) {
    if (dirty_) {
      const size_t warp = static_cast<size_t>(spec_.warp_size);
      double compute_demand = 0.0, total_transactions = 0.0;
      double total_shared = 0.0, total_ops = 0.0, critical = 0.0;
      for (size_t w = 0; w * warp < current_.size(); ++w) {
        double warp_max_ops = 0.0, warp_transactions = 0.0;
        for (size_t t = w * warp; t < std::min(current_.size(), (w + 1) * warp);
             ++t) {
          warp_max_ops = std::max(warp_max_ops, current_[t].compute_ops);
          warp_transactions += current_[t].mem_transactions;
          total_ops += current_[t].compute_ops;
          total_transactions += current_[t].mem_transactions;
          total_shared += current_[t].shared_transactions;
        }
        compute_demand += warp_max_ops;
        critical = std::max(critical,
                            warp_max_ops + warp_transactions *
                                               spec_.mem_latency_cycles /
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
      std::fill(current_.begin(), current_.end(), ThreadWork{});
      dirty_ = false;
    }
    if (charge_sync) {
      cost_.sync_cycles += spec_.sync_cost_cycles;
      ++cost_.supersteps;
    }
  }

  DeviceSpec spec_;
  std::vector<ThreadWork> current_;
  bool dirty_ = false;
  BlockCost cost_;
};

bool SameBytes(const BlockCost& a, const BlockCost& b) {
  return std::memcmp(&a, &b, sizeof(BlockCost)) == 0;
}

/// Zero about a third of the time, otherwise non-integral values whose sums
/// depend on the order they are added in.
ThreadWork RandomWork(Rng& rng) {
  ThreadWork w;
  if (rng.NextBounded(3) == 0) return w;
  w.compute_ops = static_cast<double>(rng.NextBounded(1000)) / 7.0;
  w.mem_transactions = static_cast<double>(rng.NextBounded(50)) / 3.0;
  w.shared_transactions = static_cast<double>(rng.NextBounded(20)) / 11.0;
  return w;
}

TEST(BlockCostTest, TouchedPrefixFoldMatchesDenseReference) {
  const DeviceSpec spec = Spec();
  const int threads = spec.threads_per_block();
  BlockCostModel model(spec);
  DenseReferenceModel reference(spec);
  Rng rng(2021);
  int finished = 0;
  for (int op = 0; op < 200000; ++op) {
    const uint64_t kind = rng.NextBounded(100);
    if (kind < 2) {
      model.BeginBlock();
      reference.BeginBlock();
    } else if (kind < 45) {
      // Low lanes more often, so many supersteps touch only a prefix.
      const int bound = rng.NextBounded(2) == 0 ? 40 : threads;
      const int lane = static_cast<int>(rng.NextBounded(bound));
      const ThreadWork w = RandomWork(rng);
      model.AddThreadWork(lane, w);
      reference.AddThreadWork(lane, w);
    } else if (kind < 75) {
      const int first = static_cast<int>(rng.NextBounded(threads));
      const int count =
          static_cast<int>(rng.NextBounded(threads - first + 1));
      const ThreadWork w = RandomWork(rng);
      model.AddThreadsWork(first, count, w);
      for (int t = first; t < first + count; ++t) {
        reference.AddThreadWork(t, w);
      }
    } else if (kind < 95) {
      model.EndSuperstep();
      reference.EndSuperstep();
    } else {
      const BlockCost got = model.Finish();
      const BlockCost want = reference.Finish();
      ASSERT_TRUE(SameBytes(got, want))
          << "op " << op << ": cycles " << got.cycles << " vs "
          << want.cycles;
      ++finished;
    }
  }
  ASSERT_TRUE(SameBytes(model.Finish(), reference.Finish()));
  EXPECT_GT(finished, 1000);
}

TEST(BlockCostTest, AddThreadsWorkChargesEachLaneOnce) {
  const DeviceSpec spec = Spec();
  ThreadWork w;
  w.compute_ops = 3.0;
  w.mem_transactions = 1.0;
  std::vector<ThreadWork> lanes(static_cast<size_t>(spec.threads_per_block()));
  for (int t = 40; t < 72; ++t) lanes[static_cast<size_t>(t)] = w;
  BlockCostModel model(spec);
  model.BeginBlock();
  model.AddThreadsWork(40, 32, w);
  EXPECT_TRUE(SameBytes(model.Finish(), PriceBlock(spec, lanes)));
}

TEST(BlockCostDeathTest, ThreadIndexOutOfRange) {
  BlockCostModel model(Spec());
  model.BeginBlock();
  ThreadWork w;
  EXPECT_DEATH(model.AddThreadWork(100000, w), "thread_idx");
}

TEST(BlockCostDeathTest, ThreadRangePastBlockDies) {
  const DeviceSpec spec = Spec();
  BlockCostModel model(spec);
  model.BeginBlock();
  ThreadWork w;
  EXPECT_DEATH(model.AddThreadsWork(spec.threads_per_block() - 8, 9, w),
               "threads_per_block");
  EXPECT_DEATH(model.AddThreadsWork(-1, 2, w), "first");
  EXPECT_DEATH(model.AddThreadsWork(0, -1, w), "count");
}

}  // namespace
}  // namespace gputc
