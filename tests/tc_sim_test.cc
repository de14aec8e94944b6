#include <gtest/gtest.h>

#include <memory>

#include "direction/direction.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "tc/cpu_counters.h"
#include "tc/fox.h"
#include "tc/registry.h"

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
