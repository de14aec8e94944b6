#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "direction/cost_model.h"
#include "direction/direction.h"
#include "direction/peeling.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "tc/cpu_counters.h"

namespace gputc {
namespace {

class DirectionStrategyTest
    : public ::testing::TestWithParam<DirectionStrategy> {};

TEST_P(DirectionStrategyTest, RankIsAPermutation) {
  const Graph g = GeneratePowerLawConfiguration(2000, 2.1, 1, 200, 31);
  const auto rank = DirectionRank(g, GetParam());
  EXPECT_TRUE(IsPermutation(rank));
}

TEST_P(DirectionStrategyTest, OrientationHasNoDirectedTriangle) {
  const Graph g = GeneratePowerLawConfiguration(800, 2.0, 2, 100, 32);
  const DirectedGraph d = Orient(g, GetParam());
  EXPECT_TRUE(HasNoDirectedTriangleCycle(g, d));
}

TEST_P(DirectionStrategyTest, TriangleCountIsOrientationInvariant) {
  const Graph g = GenerateRmat(9, 6, 33);
  const int64_t expected = CountTrianglesNodeIterator(g);
  EXPECT_EQ(CountTrianglesDirected(Orient(g, GetParam())), expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DirectionStrategyTest,
    ::testing::ValuesIn(AllDirectionStrategies()),
    [](const ::testing::TestParamInfo<DirectionStrategy>& info) {
      std::string name = ToString(info.param);
      std::erase(name, '-');
      return name;
    });

TEST(DirectionRankTest, IdBasedIsIdentity) {
  const Graph g = StarGraph(6);
  const auto rank = DirectionRank(g, DirectionStrategy::kIdBased);
  EXPECT_EQ(rank, IdentityPermutation(6));
}

TEST(DirectionRankTest, DegreeBasedDrainsHubs) {
  // Star: hub has max degree, so every edge points leaf -> hub.
  const Graph g = StarGraph(50);
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  EXPECT_EQ(d.out_degree(0), 0);
  for (VertexId leaf = 1; leaf < 50; ++leaf) {
    EXPECT_EQ(d.out_degree(leaf), 1);
  }
}

TEST(DirectionCostTest, StarCosts) {
  const Graph g = StarGraph(50);
  // ID-based: hub 0 gets all 49 out-edges. d_avg = 49/50.
  const double id_cost = DirectionCost(Orient(g, DirectionStrategy::kIdBased));
  // Degree-based: perfectly flat (every vertex within 1 of d_avg).
  const double deg_cost =
      DirectionCost(Orient(g, DirectionStrategy::kDegreeBased));
  EXPECT_GT(id_cost, 10 * deg_cost);
}

TEST(DirectionCostTest, MatchesManualComputation) {
  // Path 0-1-2 oriented by id: out-degrees 1,1,0; d_avg = 2/3.
  const Graph g = PathGraph(3);
  const DirectedGraph d = Orient(g, DirectionStrategy::kIdBased);
  EXPECT_NEAR(DirectionCost(d), (1 - 2.0 / 3) * 2 + 2.0 / 3, 1e-12);
}

TEST(DirectionCostTest, ThresholdedCostOnlyCountsHubs) {
  const Graph g = StarGraph(100);
  const DirectedGraph d = Orient(g, DirectionStrategy::kIdBased);
  // Only the hub exceeds 2x average degree.
  const double hub_only = DirectionCostAboveThreshold(g, d, 2.0);
  EXPECT_NEAR(hub_only, 99.0 - 99.0 / 100.0, 1e-9);
  // Threshold 0 counts everything with degree > 0.
  EXPECT_GT(DirectionCostAboveThreshold(g, d, 0.0), hub_only);
}

TEST(ADirectionTest, CostBeatsOrMatchesDegreeOnSkewedGraphs) {
  for (const char* name : {"gowalla", "cit-patents", "kron-logn18"}) {
    const Graph g = LoadDataset(name);
    const double a_cost =
        DirectionCost(Orient(g, DirectionStrategy::kADirection));
    const double d_cost =
        DirectionCost(Orient(g, DirectionStrategy::kDegreeBased));
    const double id_cost =
        DirectionCost(Orient(g, DirectionStrategy::kIdBased));
    EXPECT_LE(a_cost, d_cost * 1.02) << name;
    EXPECT_LT(a_cost, id_cost) << name;
  }
}

TEST(ADirectionTest, PeelOrderCoversAllVertices) {
  const Graph g = GeneratePowerLawConfiguration(3000, 2.0, 1, 300, 35);
  const PeelingResult result = ADirectionPeel(g);
  EXPECT_EQ(result.peel_order.size(), 3000u);
  EXPECT_TRUE(IsPermutation(PermutationFromSequence(result.peel_order)));
  EXPECT_GT(result.rounds, 0);
  EXPECT_GT(result.peel_degree, 0);
}

TEST(ADirectionTest, NonCoreEdgesPointIntoCores) {
  // Lemma 4.1: an edge between a non-core vertex (d < d_avg) and a core
  // vertex must leave the non-core vertex. Star: every leaf is non-core.
  const Graph g = StarGraph(64);
  const DirectedGraph d = Orient(g, DirectionStrategy::kADirection);
  EXPECT_EQ(d.out_degree(0), 0);
}

TEST(ADirectionTest, HandlesEmptyAndTinyGraphs) {
  const PeelingResult empty = ADirectionPeel(Graph::FromEdgeList(EdgeList{}));
  EXPECT_TRUE(empty.peel_order.empty());

  const Graph single_edge = PathGraph(2);
  const PeelingResult r = ADirectionPeel(single_edge);
  EXPECT_EQ(r.peel_order.size(), 2u);
}

TEST(ADirectionTest, ThresholdGrowthSweepStaysValid) {
  const Graph g = GeneratePowerLawConfiguration(1000, 2.2, 1, 150, 36);
  for (double growth : {1.5, 2.0, 4.0}) {
    PeelingOptions options;
    options.threshold_growth = growth;
    const PeelingResult result = ADirectionPeel(g, options);
    EXPECT_EQ(result.peel_order.size(), 1000u);
    const DirectedGraph d = DirectedGraph::FromRank(
        g, PermutationFromSequence(result.peel_order));
    EXPECT_TRUE(HasNoDirectedTriangleCycle(g, d));
  }
}

/// A-direction in its original form, the reference the production peel
/// must match bit for bit: each round re-scans every vertex, comparison-sorts
/// the frontier by (residual degree, id) and drains it through a std::deque.
PeelingResult ReferencePeel(const Graph& g, double threshold_growth) {
  const VertexId n = g.num_vertices();
  PeelingResult result;
  if (n == 0) return result;
  std::vector<EdgeCount> residual(n);
  for (VertexId v = 0; v < n; ++v) residual[v] = g.degree(v);
  std::vector<bool> peeled(n, false);
  std::vector<bool> queued(n, false);
  double threshold = std::max(
      1.0, static_cast<double>(g.num_edges()) / static_cast<double>(n));
  VertexId remaining = n;
  while (remaining > 0) {
    std::vector<VertexId> frontier;
    for (VertexId v = 0; v < n; ++v) {
      if (!peeled[v] && static_cast<double>(residual[v]) <= threshold) {
        frontier.push_back(v);
      }
    }
    if (frontier.empty()) {
      threshold *= threshold_growth;
      ++result.rounds;
      continue;
    }
    std::sort(frontier.begin(), frontier.end(), [&](VertexId a, VertexId b) {
      return residual[a] != residual[b] ? residual[a] < residual[b] : a < b;
    });
    std::deque<VertexId> queue(frontier.begin(), frontier.end());
    for (VertexId v : frontier) queued[v] = true;
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      peeled[v] = true;
      --remaining;
      result.peel_degree = std::max(result.peel_degree, residual[v]);
      result.peel_order.push_back(v);
      for (VertexId nbr : g.neighbors(v)) {
        if (peeled[nbr]) continue;
        --residual[nbr];
        if (!queued[nbr] && static_cast<double>(residual[nbr]) <= threshold) {
          queued[nbr] = true;
          queue.push_back(nbr);
        }
      }
    }
    threshold *= threshold_growth;
    ++result.rounds;
  }
  return result;
}

TEST(ADirectionTest, PeelMatchesReferenceBitForBit) {
  EdgeList sparse;  // Two small components among mostly isolated vertices.
  sparse.Add(0, 1);
  sparse.Add(1, 2);
  sparse.Add(0, 2);
  sparse.Add(2, 9);
  sparse.Add(20, 21);
  sparse.Add(21, 22);
  sparse.set_num_vertices(40);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("rmat", GenerateRmat(12, 8, 61));
  graphs.emplace_back("ws", GenerateWattsStrogatz(20000, 8, 0.1, 62));
  graphs.emplace_back("powerlaw",
                      GeneratePowerLawConfiguration(5000, 2.1, 1, 400, 63));
  graphs.emplace_back("er", GenerateErdosRenyi(4000, 20000, 64));
  graphs.emplace_back("star", StarGraph(300));
  graphs.emplace_back("path", PathGraph(257));
  graphs.emplace_back("isolated", Graph::FromEdgeList(std::move(sparse)));
  graphs.emplace_back("empty", Graph::FromEdgeList(EdgeList{}));
  for (const auto& [name, g] : graphs) {
    for (const double growth : {1.25, 2.0, 3.0, 8.0}) {
      SCOPED_TRACE(name + " growth=" + std::to_string(growth));
      PeelingOptions options;
      options.threshold_growth = growth;
      const PeelingResult got = ADirectionPeel(g, options);
      const PeelingResult want = ReferencePeel(g, growth);
      EXPECT_EQ(got.peel_order, want.peel_order);
      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(got.peel_degree, want.peel_degree);
    }
  }
}

TEST(ADirectionTest, FlattensOutDegreeDistribution) {
  const Graph g = LoadDataset("kron-logn18");
  const DirectedGraph a = Orient(g, DirectionStrategy::kADirection);
  const DirectedGraph id = Orient(g, DirectionStrategy::kIdBased);
  EXPECT_LT(a.MaxOutDegree(), id.MaxOutDegree());
}

}  // namespace
}  // namespace gputc
