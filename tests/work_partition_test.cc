#include <gtest/gtest.h>

#include "direction/direction.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "tc/work_partition.h"

namespace gputc {
namespace {

TEST(WorkPartitionTest, RangesCoverAllArcsExactlyOnce) {
  const Graph g = GenerateErdosRenyi(500, 2000, 81);
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  const auto ranges = VertexBucketArcRanges(d, 64);
  EXPECT_EQ(ranges.size(), (500 + 63) / 64);
  int64_t covered = 0;
  int64_t prev_end = 0;
  for (const ArcRange& r : ranges) {
    EXPECT_EQ(r.begin, prev_end);
    EXPECT_GE(r.end, r.begin);
    covered += r.size();
    prev_end = r.end;
  }
  EXPECT_EQ(covered, d.num_edges());
}

TEST(WorkPartitionTest, BucketBoundariesFollowVertexIds) {
  const Graph g = StarGraph(10);  // Hub 0 with 9 leaves.
  const DirectedGraph d = Orient(g, DirectionStrategy::kIdBased);
  // ID orientation: all 9 arcs belong to vertex 0.
  const auto ranges = VertexBucketArcRanges(d, 5);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].size(), 9);  // Vertices 0..4 own every arc.
  EXPECT_EQ(ranges[1].size(), 0);  // Vertices 5..9 own none.
}

TEST(WorkPartitionTest, EmptyGraph) {
  const DirectedGraph d = DirectedGraph::FromParts({0}, {});
  EXPECT_TRUE(VertexBucketArcRanges(d, 8).empty());
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
  VertexId first = 0;
  for (const ArcRange& r : VertexBucketArcRanges(d, kBucket)) {
    SourceCursor cursor(d, first);
    for (int64_t i = r.begin; i < r.end; ++i) {
      EXPECT_EQ(cursor(i), sources[static_cast<size_t>(i)]) << "arc " << i;
    }
    first += kBucket;
  }
}

TEST(WorkPartitionTest, ReorderingMovesArcsBetweenBuckets) {
  // The mechanism the whole paper rides on: permuting vertices changes the
  // arc content of each fixed-id-range block.
  const Graph g = GeneratePowerLawConfiguration(256, 2.0, 1, 60, 83);
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  const auto before = VertexBucketArcRanges(d, 64);
  // Reverse the ids.
  Permutation perm(256);
  for (VertexId v = 0; v < 256; ++v) perm[v] = 255 - v;
  const DirectedGraph relabeled = ApplyPermutation(d, perm);
  const auto after = VertexBucketArcRanges(relabeled, 64);
  ASSERT_EQ(before.size(), after.size());
  // First bucket's load before == last bucket's load after (reversal), and
  // at least one bucket changed if loads are nonuniform.
  EXPECT_EQ(before.front().size(), after.back().size());
  EXPECT_EQ(before.back().size(), after.front().size());
}

}  // namespace
}  // namespace gputc
