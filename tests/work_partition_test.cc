#include <gtest/gtest.h>

#include <vector>

#include "direction/direction.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "tc/work_partition.h"

namespace gputc {
namespace {

TEST(WorkPartitionTest, RangesCoverAllArcsExactlyOnce) {
  const Graph g = GenerateErdosRenyi(500, 2000, 81);
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  const auto bounds = VertexBucketArcBounds(d, 64);
  EXPECT_EQ(bounds.size(), (500 + 63) / 64 + 1u);
  EXPECT_EQ(bounds.front(), 0);
  for (size_t b = 1; b < bounds.size(); ++b) {
    EXPECT_GE(bounds[b], bounds[b - 1]);
  }
  EXPECT_EQ(bounds.back(), d.num_edges());
}

TEST(WorkPartitionTest, BucketBoundariesFollowVertexIds) {
  const Graph g = StarGraph(10);  // Hub 0 with 9 leaves.
  const DirectedGraph d = Orient(g, DirectionStrategy::kIdBased);
  // ID orientation: all 9 arcs belong to vertex 0.
  // Vertices 0..4 own every arc; vertices 5..9 own none.
  EXPECT_EQ(VertexBucketArcBounds(d, 5), (std::vector<EdgeCount>{0, 9, 9}));
}

TEST(WorkPartitionTest, EmptyGraph) {
  const DirectedGraph d = DirectedGraph::FromParts({0}, {});
  EXPECT_EQ(VertexBucketArcBounds(d, 8), std::vector<EdgeCount>{0});
}

TEST(WorkPartitionTest, ArcSourcesMatchCsr) {
  const Graph g = GeneratePowerLawConfiguration(300, 2.0, 1, 60, 82);
  const DirectedGraph d = Orient(g, DirectionStrategy::kADirection);
  const auto sources = ArcSources(d);
  ASSERT_EQ(sources.size(), static_cast<size_t>(d.num_edges()));
  // Cross-check: arc i with source u must satisfy
  // offsets[u] <= i < offsets[u+1], and adjacency[i] in out_neighbors(u).
  for (size_t i = 0; i < sources.size(); ++i) {
    const VertexId u = sources[i];
    EXPECT_GE(static_cast<EdgeCount>(i), d.offsets()[u]);
    EXPECT_LT(static_cast<EdgeCount>(i), d.offsets()[u + 1]);
  }
}

TEST(WorkPartitionTest, SourceCursorMatchesArcSourcesInEveryBucket) {
  // Power-law degrees leave many out-degree-0 vertices for the cursor to
  // step over, including at bucket boundaries.
  const Graph g = GeneratePowerLawConfiguration(300, 2.0, 1, 60, 84);
  const DirectedGraph d = Orient(g, DirectionStrategy::kADirection);
  const auto sources = ArcSources(d);
  constexpr int kBucket = 16;
  const auto bounds = VertexBucketArcBounds(d, kBucket);
  for (size_t b = 0; b + 1 < bounds.size(); ++b) {
    SourceCursor cursor(d, static_cast<VertexId>(b * kBucket));
    for (int64_t i = bounds[b]; i < bounds[b + 1]; ++i) {
      EXPECT_EQ(cursor(i), sources[static_cast<size_t>(i)]) << "arc " << i;
    }
  }
}

TEST(WorkPartitionTest, ReorderingMovesArcsBetweenBuckets) {
  // The mechanism the whole paper rides on: permuting vertices changes the
  // arc content of each fixed-id-range block.
  const Graph g = GeneratePowerLawConfiguration(256, 2.0, 1, 60, 83);
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  const auto before = VertexBucketArcBounds(d, 64);
  // Reverse the ids.
  Permutation perm(256);
  for (VertexId v = 0; v < 256; ++v) perm[v] = 255 - v;
  const DirectedGraph relabeled = ApplyPermutation(d, perm);
  const auto after = VertexBucketArcBounds(relabeled, 64);
  ASSERT_EQ(before.size(), 5u);
  ASSERT_EQ(after.size(), 5u);
  // First bucket's load before == last bucket's load after (reversal).
  EXPECT_EQ(before[1] - before[0], after[4] - after[3]);
  EXPECT_EQ(before[4] - before[3], after[1] - after[0]);
}

}  // namespace
}  // namespace gputc
