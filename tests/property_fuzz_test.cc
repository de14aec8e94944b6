#include <gtest/gtest.h>

#include <numeric>

#include "core/pipeline.h"
#include "direction/cost_model.h"
#include "direction/direction.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "order/calibration.h"
#include "order/classic_orders.h"
#include "tc/cpu_counters.h"
#include "util/random.h"

namespace gputc {
namespace {

// Randomized property sweeps: the invariants every component must hold on
// arbitrary graphs, exercised across seeds and graph families via TEST_P.

struct FuzzCase {
  uint64_t seed;
  int family;  // 0 = ER, 1 = power-law, 2 = RMAT, 3 = small-world.
};

Graph MakeGraph(const FuzzCase& c) {
  switch (c.family) {
    case 0:
      return GenerateErdosRenyi(200 + c.seed % 100, 800, c.seed);
    case 1:
      return GeneratePowerLawConfiguration(300, 1.8 + (c.seed % 5) * 0.2, 1,
                                           100, c.seed);
    case 2:
      return GenerateRmat(8, 4 + static_cast<int>(c.seed % 4), c.seed);
    default:
      return GenerateWattsStrogatz(250, 4 + 2 * static_cast<int>(c.seed % 2),
                                   0.1, c.seed);
  }
}

class FuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzTest, OrientationInvariants) {
  const Graph g = MakeGraph(GetParam());
  for (DirectionStrategy s : AllDirectionStrategies()) {
    const std::vector<VertexId> rank = DirectionRank(g, s, GetParam().seed);
    ASSERT_TRUE(IsPermutation(rank)) << ToString(s);
    const DirectedGraph d = DirectedGraph::FromRank(g, rank);
    // Arc count conservation and degree split.
    EXPECT_EQ(d.num_edges(), g.num_edges());
    EdgeCount total_out = 0;
    for (VertexId v = 0; v < d.num_vertices(); ++v) {
      total_out += d.out_degree(v);
      EXPECT_LE(d.out_degree(v), g.degree(v));
    }
    EXPECT_EQ(total_out, g.num_edges());
    // No directed 3-cycles.
    EXPECT_TRUE(HasNoDirectedTriangleCycle(g, d)) << ToString(s);
  }
}

TEST_P(FuzzTest, CostIsOrientationBounded) {
  // For any orientation: 0 <= C(P) <= 3m, since each |d~(v) - d_avg| term
  // is at most d~(v) + d_avg, and both sum to m over the graph.
  const Graph g = MakeGraph(GetParam());
  if (g.num_edges() == 0) return;
  const double m = static_cast<double>(g.num_edges());
  for (DirectionStrategy s : AllDirectionStrategies()) {
    const double cost = DirectionCost(Orient(g, s, GetParam().seed));
    EXPECT_LE(cost, 3.0 * m + 1e-9) << ToString(s);
    EXPECT_GE(cost, 0.0);
  }
}

TEST_P(FuzzTest, CountInvariantAcrossWholePipeline) {
  const Graph g = MakeGraph(GetParam());
  const int64_t expected = CountTrianglesNodeIterator(g);
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  PreprocessOptions options;  // A-direction + A-order.
  for (TcAlgorithm algorithm :
       {TcAlgorithm::kHu, TcAlgorithm::kTriCore, TcAlgorithm::kFox}) {
    EXPECT_EQ(RunTriangleCount(g, algorithm, spec, options).triangles,
              expected)
        << ToString(algorithm);
  }
}

TEST_P(FuzzTest, PermutationRoundTrip) {
  const Graph g = MakeGraph(GetParam());
  const Permutation perm = RandomOrder(g.num_vertices(), GetParam().seed);
  const Permutation inv = InversePermutation(perm);
  const Graph there = ApplyPermutation(g, perm);
  const Graph back = ApplyPermutation(there, inv);
  EXPECT_EQ(back.offsets(), g.offsets());
  EXPECT_EQ(back.adjacency(), g.adjacency());
}

std::vector<FuzzCase> MakeCases() {
  std::vector<FuzzCase> cases;
  for (uint64_t seed : {11ull, 23ull, 47ull}) {
    for (int family = 0; family < 4; ++family) {
      cases.push_back(FuzzCase{seed, family});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "family" +
             std::to_string(info.param.family);
    });

}  // namespace
}  // namespace gputc
