#include <gtest/gtest.h>

#include "direction/direction.h"
#include "graph/generators.h"
#include "tc/cpu_counters.h"

namespace gputc {
namespace {

TEST(CpuCountersTest, KnownFixtureCounts) {
  EXPECT_EQ(CountTrianglesNodeIterator(CompleteGraph(5)), 10);
  EXPECT_EQ(CountTrianglesEdgeIterator(CompleteGraph(5)), 10);
  EXPECT_EQ(CountTrianglesForward(CompleteGraph(5)), 10);

  EXPECT_EQ(CountTrianglesNodeIterator(WheelGraph(8)), 7);
  EXPECT_EQ(CountTrianglesEdgeIterator(CycleGraph(10)), 0);
}

TEST(CpuCountersTest, EmptyAndTinyGraphs) {
  const Graph empty = Graph::FromEdgeList(EdgeList{});
  EXPECT_EQ(CountTrianglesNodeIterator(empty), 0);
  EXPECT_EQ(CountTrianglesEdgeIterator(empty), 0);
  EXPECT_EQ(CountTrianglesForward(empty), 0);
  EXPECT_EQ(CountTrianglesForward(PathGraph(2)), 0);
}

class CpuAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CpuAgreementTest, AllCountersAgreeOnRandomGraphs) {
  const uint64_t seed = GetParam();
  for (const Graph& g :
       {GenerateErdosRenyi(300, 2000, seed),
        GeneratePowerLawConfiguration(400, 2.0, 2, 80, seed),
        GenerateRmat(8, 8, seed), GenerateWattsStrogatz(300, 6, 0.2, seed)}) {
    const int64_t expected = CountTrianglesNodeIterator(g);
    EXPECT_EQ(CountTrianglesEdgeIterator(g), expected);
    EXPECT_EQ(CountTrianglesForward(g), expected);
    // The exact counter is orientation-agnostic: any acyclic orientation
    // sees each triangle exactly once.
    for (DirectionStrategy direction : AllDirectionStrategies()) {
      EXPECT_EQ(CountTrianglesDirected(Orient(g, direction, seed)), expected)
          << ToString(direction);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuAgreementTest,
                         ::testing::Values(1, 7, 42, 123));

TEST(CpuCountersTest, DenseSmallWorldHasManyTriangles) {
  // Ring lattice k=6 without rewiring: each vertex participates in
  // triangles with its near neighbors.
  const Graph g = GenerateWattsStrogatz(500, 6, 0.0, 9);
  EXPECT_GT(CountTrianglesForward(g), 900);
}

TEST(CpuCountersTest, DirectedCounterHonoursTheExecutionEnvelope) {
  const DirectedGraph d =
      Orient(CompleteGraph(12), DirectionStrategy::kDegreeBased);
  ExecContext limited;
  limited.count_limit = 219;  // K12 has 220 triangles.
  EXPECT_EQ(TryCountTrianglesDirected(d, limited).status().code(),
            StatusCode::kOutOfRange);
  limited.count_limit = 220;
  const StatusOr<int64_t> exact = TryCountTrianglesDirected(d, limited);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(*exact, 220);

  ExecContext cancelled;
  cancelled.cancel.Cancel("stop");
  EXPECT_EQ(TryCountTrianglesDirected(d, cancelled).status().code(),
            StatusCode::kCancelled);
}

}  // namespace
}  // namespace gputc
