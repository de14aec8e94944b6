#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/preprocess.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "tc/cpu_counters.h"

namespace gputc {
namespace {

TEST(PreprocessTest, DefaultsProduceValidOutput) {
  const Graph g = GeneratePowerLawConfiguration(1200, 2.1, 2, 150, 71);
  const PreprocessResult r = Preprocess(g, DeviceSpec::TitanXpLike());
  EXPECT_EQ(r.graph.num_vertices(), g.num_vertices());
  EXPECT_EQ(r.graph.num_edges(), g.num_edges());
  EXPECT_TRUE(IsPermutation(r.vertex_perm));
  EXPECT_GE(r.total_ms, r.direction_ms);
  EXPECT_GT(r.direction_cost, 0.0);
  EXPECT_GT(r.lambda, 0.0);
}

TEST(PreprocessTest, PreservesTriangleCount) {
  const Graph g = GenerateRmat(9, 8, 72);
  const int64_t expected = CountTrianglesNodeIterator(g);
  for (DirectionStrategy dir :
       {DirectionStrategy::kIdBased, DirectionStrategy::kDegreeBased,
        DirectionStrategy::kADirection}) {
    for (OrderingStrategy ord :
         {OrderingStrategy::kOriginal, OrderingStrategy::kAOrder,
          OrderingStrategy::kDegree}) {
      PreprocessOptions options;
      options.direction = dir;
      options.ordering = ord;
      const PreprocessResult r =
          Preprocess(g, DeviceSpec::TitanXpLike(), options);
      EXPECT_EQ(CountTrianglesDirected(r.graph), expected)
          << ToString(dir) << "/" << ToString(ord);
    }
  }
}

TEST(PreprocessTest, BucketSizeDefaultsToBlockThreads) {
  const Graph g = GeneratePowerLawConfiguration(800, 2.0, 2, 100, 73);
  PreprocessOptions options;
  options.aorder.bucket_size = 0;  // Ask for the device default.
  const PreprocessResult r =
      Preprocess(g, DeviceSpec::TitanXpLike(), options);
  EXPECT_TRUE(IsPermutation(r.vertex_perm));
}

TEST(RunTriangleCountTest, MatchesCpuAcrossAlgorithms) {
  const Graph g = LoadDataset("email-Eucore");
  const int64_t expected = CountTrianglesNodeIterator(g);
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  for (TcAlgorithm algorithm : PaperAlgorithms()) {
    const RunResult r = RunTriangleCount(g, algorithm, spec);
    EXPECT_EQ(r.triangles, expected) << ToString(algorithm);
    EXPECT_GT(r.kernel_ms(), 0.0);
    EXPECT_GE(r.total_ms(), r.kernel_ms());
  }
}

TEST(RunTriangleCountTest, FoxUsesEdgeReordering) {
  // With A-order requested on Fox, vertices keep their ids (edge unit).
  const Graph g = LoadDataset("email-Eucore");
  PreprocessOptions options;
  options.direction = DirectionStrategy::kDegreeBased;
  options.ordering = OrderingStrategy::kAOrder;
  const RunResult r =
      RunTriangleCount(g, TcAlgorithm::kFox, DeviceSpec::TitanXpLike(), options);
  EXPECT_EQ(r.preprocess.vertex_perm,
            IdentityPermutation(g.num_vertices()));
  EXPECT_EQ(r.triangles, CountTrianglesNodeIterator(g));
  EXPECT_GT(r.preprocess.ordering_ms, 0.0);
}

TEST(CountTrianglesFacadeTest, QuickstartPath) {
  EXPECT_EQ(CountTriangles(CompleteGraph(10)), 120);
  EXPECT_EQ(CountTriangles(CycleGraph(8)), 0);
}

TEST(PreprocessTest, CostDiagnosticsTrackStrategies) {
  const Graph g = LoadDataset("gowalla");
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  PreprocessOptions a, id;
  a.direction = DirectionStrategy::kADirection;
  id.direction = DirectionStrategy::kIdBased;
  a.ordering = id.ordering = OrderingStrategy::kOriginal;
  EXPECT_LT(Preprocess(g, spec, a).direction_cost,
            Preprocess(g, spec, id).direction_cost);
}

}  // namespace
}  // namespace gputc
