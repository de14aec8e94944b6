#include <gtest/gtest.h>

#include <numeric>

#include "direction/direction.h"
#include "graph/directed_graph.h"
#include "graph/generators.h"
#include "graph/permutation.h"

namespace gputc {
namespace {

TEST(DirectedGraphTest, FromRankOrientsEveryEdgeOnce) {
  const Graph g = CompleteGraph(5);
  const DirectedGraph d =
      DirectedGraph::FromRank(g, IdentityPermutation(5));
  EXPECT_EQ(d.num_edges(), g.num_edges());
  EdgeCount arcs = 0;
  for (VertexId v = 0; v < 5; ++v) arcs += d.out_degree(v);
  EXPECT_EQ(arcs, g.num_edges());
  // Identity rank == ID-based: vertex 0 points to everyone.
  EXPECT_EQ(d.out_degree(0), 4);
  EXPECT_EQ(d.out_degree(4), 0);
}

TEST(DirectedGraphTest, ReversedRankFlipsOrientation) {
  const Graph g = CompleteGraph(4);
  std::vector<VertexId> rank = {3, 2, 1, 0};
  const DirectedGraph d = DirectedGraph::FromRank(g, rank);
  EXPECT_EQ(d.out_degree(3), 3);
  EXPECT_EQ(d.out_degree(0), 0);
  EXPECT_TRUE(d.HasArc(3, 0));
  EXPECT_FALSE(d.HasArc(0, 3));
}

TEST(DirectedGraphTest, DuplicateRanksBreakTiesById) {
  const Graph g = CycleGraph(4);
  const std::vector<VertexId> all_equal(4, 0);
  const DirectedGraph d = DirectedGraph::FromRank(g, all_equal);
  EXPECT_EQ(d.num_edges(), 4);
  EXPECT_TRUE(d.HasArc(0, 1));
  EXPECT_FALSE(d.HasArc(1, 0));
  EXPECT_TRUE(HasNoDirectedTriangleCycle(g, d));
}

TEST(DirectedGraphTest, OutListsAreSorted) {
  const Graph g = GenerateErdosRenyi(60, 200, /*seed=*/2);
  const DirectedGraph d =
      DirectedGraph::FromRank(g, IdentityPermutation(60));
  for (VertexId v = 0; v < 60; ++v) {
    const auto nbrs = d.out_neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
}

TEST(DirectedGraphTest, AverageAndMaxOutDegree) {
  const Graph g = StarGraph(9);
  const DirectedGraph hub_first =
      DirectedGraph::FromRank(g, IdentityPermutation(9));
  EXPECT_EQ(hub_first.MaxOutDegree(), 8);
  EXPECT_DOUBLE_EQ(hub_first.AverageOutDegree(), 8.0 / 9.0);

  std::vector<VertexId> hub_last(9);
  std::iota(hub_last.begin(), hub_last.end(), VertexId{0});
  hub_last[0] = 8;
  hub_last[8] = 0;
  const DirectedGraph leaves_first = DirectedGraph::FromRank(g, hub_last);
  EXPECT_EQ(leaves_first.MaxOutDegree(), 1);
}

TEST(DirectedGraphTest, OutDegreesVectorMatchesAccessor) {
  const Graph g = GenerateErdosRenyi(40, 100, /*seed=*/8);
  const DirectedGraph d =
      DirectedGraph::FromRank(g, IdentityPermutation(40));
  const std::vector<EdgeCount> degs = d.OutDegrees();
  ASSERT_EQ(degs.size(), 40u);
  for (VertexId v = 0; v < 40; ++v) EXPECT_EQ(degs[v], d.out_degree(v));
}

TEST(DirectedGraphTest, ApplyPermutationPreservesOrientation) {
  const Graph g = GenerateErdosRenyi(30, 80, /*seed=*/4);
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  // Reverse the ids; arcs must keep pointing the same logical way.
  Permutation perm(30);
  for (VertexId v = 0; v < 30; ++v) perm[v] = 29 - v;
  const DirectedGraph relabeled = ApplyPermutation(d, perm);
  EXPECT_EQ(relabeled.num_edges(), d.num_edges());
  for (VertexId u = 0; u < 30; ++u) {
    for (VertexId v : d.out_neighbors(u)) {
      EXPECT_TRUE(relabeled.HasArc(perm[u], perm[v]));
      EXPECT_FALSE(relabeled.HasArc(perm[v], perm[u]));
    }
  }
}

TEST(DirectedGraphTest, FromPartsValidatesShape) {
  const DirectedGraph d =
      DirectedGraph::FromParts({0, 2, 2, 2}, {1, 2});
  EXPECT_EQ(d.num_vertices(), 3u);
  EXPECT_EQ(d.num_edges(), 2);
  EXPECT_EQ(d.out_degree(0), 2);
  EXPECT_TRUE(d.HasArc(0, 2));
}

// Out-degrees that disagree with the rank would spill a row into the next
// one, and past the adjacency at the last row; builds without NDEBUG check
// where each row ends.
TEST(DirectedGraphDeathTest, OutDegreesThatDisagreeWithTheRankFailARowCheck) {
#ifdef NDEBUG
  GTEST_SKIP() << "the row check is compiled out under NDEBUG";
#else
  const Graph g = CompleteGraph(3);  // Identity rank: degrees {2, 1, 0}.
  EXPECT_DEATH(DirectedGraph::FromRankAndPermutation(
                   g, IdentityPermutation(3), {1, 2, 0},
                   IdentityPermutation(3)),
               "next == ");
#endif
}

}  // namespace
}  // namespace gputc
