#include <gtest/gtest.h>

#include <memory>

#include "direction/direction.h"
#include "graph/datasets.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "order/calibration.h"
#include "tc/cpu_counters.h"
#include "tc/fox.h"
#include "tc/registry.h"
#include "util/durable_file.h"

namespace gputc {
namespace {

std::vector<TcAlgorithm> AllAlgorithms() {
  return {TcAlgorithm::kGunrockBinarySearch, TcAlgorithm::kGunrockSortMerge,
          TcAlgorithm::kTriCore,             TcAlgorithm::kFox,
          TcAlgorithm::kBisson,              TcAlgorithm::kHu,
          TcAlgorithm::kPolak};
}

class SimCounterTest : public ::testing::TestWithParam<TcAlgorithm> {
 protected:
  DeviceSpec spec_ = DeviceSpec::TitanXpLike();
};

TEST_P(SimCounterTest, ExactOnFixtures) {
  const auto counter = MakeCounter(GetParam());
  struct Case {
    Graph graph;
    int64_t expected;
  };
  const Case cases[] = {
      {CompleteGraph(8), 56},   {CycleGraph(12), 0},
      {WheelGraph(9), 8},       {StarGraph(30), 0},
      {CompleteGraph(3), 1},    {GridGraph(4, 5), 0},
  };
  for (const Case& c : cases) {
    const DirectedGraph d = Orient(c.graph, DirectionStrategy::kDegreeBased);
    EXPECT_EQ(counter->Count(d, spec_).triangles, c.expected)
        << counter->name();
  }
}

TEST_P(SimCounterTest, MatchesCpuOnRandomGraphs) {
  const auto counter = MakeCounter(GetParam());
  for (uint64_t seed : {3u, 19u}) {
    const Graph g = GeneratePowerLawConfiguration(600, 2.0, 2, 120, seed);
    const int64_t expected = CountTrianglesNodeIterator(g);
    for (DirectionStrategy dir :
         {DirectionStrategy::kIdBased, DirectionStrategy::kADirection}) {
      const DirectedGraph d = Orient(g, dir);
      EXPECT_EQ(counter->Count(d, spec_).triangles, expected)
          << counter->name() << " " << ToString(dir);
    }
  }
}

TEST_P(SimCounterTest, ReportsNonTrivialKernelStats) {
  const auto counter = MakeCounter(GetParam());
  const Graph g = GenerateRmat(9, 8, 5);
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  const TcResult r = counter->Count(d, spec_);
  EXPECT_GT(r.kernel.cycles, 0.0);
  EXPECT_GT(r.kernel.millis, 0.0);
  EXPECT_GT(r.kernel.num_blocks, 0);
  EXPECT_GT(r.kernel.total_transactions, 0.0);
  EXPECT_GT(r.kernel.sm_utilization, 0.0);
  EXPECT_LE(r.kernel.sm_utilization, 1.0);
}

TEST_P(SimCounterTest, EmptyGraphIsZero) {
  const auto counter = MakeCounter(GetParam());
  const Graph g = Graph::FromEdgeList(EdgeList{});
  const DirectedGraph d = Orient(g, DirectionStrategy::kIdBased);
  const TcResult r = counter->Count(d, spec_);
  EXPECT_EQ(r.triangles, 0);
}

TEST_P(SimCounterTest, DeterministicCost) {
  const auto counter = MakeCounter(GetParam());
  const Graph g = GenerateErdosRenyi(300, 1500, 6);
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  EXPECT_EQ(counter->Count(d, spec_).kernel.cycles,
            counter->Count(d, spec_).kernel.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SimCounterTest, ::testing::ValuesIn(AllAlgorithms()),
    [](const ::testing::TestParamInfo<TcAlgorithm>& info) {
      std::string name = ToString(info.param);
      std::erase(name, '-');
      return name;
    });

TEST(SimCounterMetaTest, InterfaceFlagsMatchPaper) {
  EXPECT_TRUE(MakeCounter(TcAlgorithm::kBisson)->uses_intra_block_sync());
  EXPECT_TRUE(MakeCounter(TcAlgorithm::kHu)->uses_intra_block_sync());
  EXPECT_FALSE(MakeCounter(TcAlgorithm::kTriCore)->uses_intra_block_sync());
  EXPECT_FALSE(MakeCounter(TcAlgorithm::kBisson)->uses_binary_search());
  EXPECT_TRUE(MakeCounter(TcAlgorithm::kTriCore)->uses_binary_search());
  EXPECT_EQ(MakeCounter(TcAlgorithm::kFox)->reorder_unit(),
            ReorderUnit::kEdge);
  EXPECT_EQ(MakeCounter(TcAlgorithm::kHu)->reorder_unit(),
            ReorderUnit::kVertex);
}

/// CRC32C of the bit pattern of every KernelStats field, in declaration
/// order.
uint32_t KernelStatsCrc(const KernelStats& k) {
  uint32_t crc = 0;
  const auto fold = [&crc](const auto& field) {
    crc = Crc32c(&field, sizeof(field), crc);
  };
  fold(k.cycles);
  fold(k.millis);
  fold(k.num_blocks);
  fold(k.supersteps);
  fold(k.total_ops);
  fold(k.total_transactions);
  fold(k.total_shared_transactions);
  fold(k.compute_cycles);
  fold(k.memory_cycles);
  fold(k.shared_cycles);
  fold(k.sync_cycles);
  fold(k.sm_utilization);
  return crc;
}

TEST(FoxEdgeOrderTest, ArbitraryEdgeOrderKeepsCountExact) {
  const Graph g = GeneratePowerLawConfiguration(500, 2.1, 2, 100, 8);
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  const int64_t expected = CountTrianglesNodeIterator(g);
  const FoxCounter fox;
  // Reversed edge order.
  std::vector<int64_t> reversed(static_cast<size_t>(d.num_edges()));
  for (size_t i = 0; i < reversed.size(); ++i) {
    reversed[i] = static_cast<int64_t>(reversed.size() - 1 - i);
  }
  EXPECT_EQ(
      fox.CountWithEdgeOrder(d, DeviceSpec::TitanXpLike(), reversed).triangles,
      expected);
}

TEST(FoxEdgeOrderTest, OrdersThatAreNotPermutationsAreRejected) {
  // K6 under ID orientation: 15 arcs, 20 triangles.
  const DirectedGraph d = Orient(CompleteGraph(6), DirectionStrategy::kIdBased);
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const FoxCounter fox;
  std::vector<int64_t> order(static_cast<size_t>(d.num_edges()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);

  std::vector<int64_t> duplicate = order;
  duplicate[1] = 0;  // [0, 0, 2, 3, ...]: arc 1 is never processed.
  EXPECT_EQ(
      fox.TryCountWithEdgeOrder(d, spec, duplicate, ExecContext{}).status().code(),
      StatusCode::kInvalidArgument);

  std::vector<int64_t> out_of_range = order;
  out_of_range.back() = d.num_edges();
  EXPECT_EQ(fox.TryCountWithEdgeOrder(d, spec, out_of_range, ExecContext{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  order.pop_back();
  EXPECT_EQ(
      fox.TryCountWithEdgeOrder(d, spec, order, ExecContext{}).status().code(),
      StatusCode::kInvalidArgument);
}

// The pipeline's own order is priced without a permutation check, but one
// of the wrong length is still refused, and an order that runs bin by bin
// prices exactly as the checked path does.
TEST(FoxEdgeOrderTest, BinnedOrderMatchesTheCheckedPath) {
  const Graph g = GeneratePowerLawConfiguration(500, 2.1, 2, 100, 8);
  const DirectedGraph d = Orient(g, DirectionStrategy::kADirection);
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const FoxCounter fox;
  std::vector<int64_t> order =
      fox.AOrderedEdgeOrder(d, ResourceModel::Default(), spec);
  const StatusOr<TcResult> checked =
      fox.TryCountWithEdgeOrder(d, spec, order, ExecContext{});
  const StatusOr<TcResult> binned =
      fox.TryCountWithBinnedOrder(d, spec, order, ExecContext{});
  ASSERT_TRUE(checked.ok() && binned.ok());
  EXPECT_EQ(binned->triangles, checked->triangles);
  EXPECT_EQ(KernelStatsCrc(binned->kernel), KernelStatsCrc(checked->kernel));

  order.pop_back();
  EXPECT_EQ(fox.TryCountWithBinnedOrder(d, spec, order, ExecContext{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// Fox's edge A-order itself, not only the kernel it prices: per graph, the
// CRC32C of AOrderedEdgeOrder's output (A-direction, calibrated model) and
// of the KernelStats TryCountWithEdgeOrder reports for it. The order is what
// perfbench's staged path rebuilds and compares, so a change to how it is
// binned or packed must reproduce it entry for entry.
TEST(FoxEdgeOrderTest, EdgeOrderAndItsKernelStatsArePinned) {
  struct Pinned {
    const char* name;
    Graph graph;
    uint32_t order_crc;
    uint32_t stats_crc;
  };
  const Pinned pinned[] = {
      {"rmat-14", GenerateRmat(14, 16, 5), 0x6aebb71f, 0xcb0ff0d5},
      {"ws-65536", GenerateWattsStrogatz(1 << 16, 8, 0.1, 6), 0x486fcbab,
       0x4ec9bd99},
      {"power-law", GeneratePowerLawConfiguration(300, 2.3, 2, 40, 11),
       0x77553b69, 0x786b7740},
      {"uniform", GenerateErdosRenyi(200, 800, 12), 0xb6e8b894, 0x679d804a},
      {"star", StarGraph(300), 0x6ab1b917, 0x4186d973},
      {"path", PathGraph(1000), 0xba9b59ed, 0x8bb6e008},
      {"empty", Graph::FromEdgeList(EdgeList(0)), 0x00000000, 0x51f204ab},
  };
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const ResourceModel model = CalibratedResourceModel(spec);
  const FoxCounter fox;
  for (const Pinned& p : pinned) {
    const DirectedGraph d = Orient(p.graph, DirectionStrategy::kADirection);
    const std::vector<int64_t> order = fox.AOrderedEdgeOrder(d, model, spec);
    ASSERT_EQ(static_cast<int64_t>(order.size()), d.num_edges()) << p.name;
    const StatusOr<TcResult> counted =
        fox.TryCountWithEdgeOrder(d, spec, order, ExecContext{});
    ASSERT_TRUE(counted.ok()) << p.name << ": " << counted.status().ToString();
    EXPECT_EQ(counted->triangles, CountTrianglesNodeIterator(p.graph))
        << p.name;
    const uint32_t order_crc =
        Crc32c(order.data(), order.size() * sizeof(int64_t));
    EXPECT_EQ(order_crc, p.order_crc)
        << p.name << ": edge order CRC32C is 0x" << std::hex << order_crc;
    const uint32_t stats_crc = KernelStatsCrc(counted->kernel);
    EXPECT_EQ(stats_crc, p.stats_crc)
        << p.name << ": KernelStats CRC32C is 0x" << std::hex << stats_crc;
  }
}

TEST(GunrockVariantsTest, BothStrategiesAgreeOnCount) {
  const Graph g = LoadDataset("email-Eucore");
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const auto bs = MakeCounter(TcAlgorithm::kGunrockBinarySearch)->Count(d, spec);
  const auto sm = MakeCounter(TcAlgorithm::kGunrockSortMerge)->Count(d, spec);
  EXPECT_EQ(bs.triangles, sm.triangles);
  EXPECT_NE(bs.kernel.cycles, sm.kernel.cycles);
}

}  // namespace
}  // namespace gputc
