#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/preprocess.h"
#include "direction/cost_model.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "order/calibration.h"
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

// -- The request's counted CSR against the two-step build -------------------
//
// TryPreprocess's graph, permutation, Eq. 1 and Eq. 3 must match, bit for
// bit, what the public calls give when the oriented graph is built first and
// relabeled second (FromRank, then ApplyPermutation), as perfbench's staged
// path assembles them.

struct TwoStepBuild {
  DirectedGraph graph;
  Permutation perm;
  double direction_cost = 0.0;
  double ordering_cost = 0.0;
};

TwoStepBuild BuildInTwoSteps(const Graph& g, const DeviceSpec& spec,
                             const PreprocessOptions& options) {
  const ResourceModel model = CalibratedResourceModel(spec);
  AOrderOptions aorder = options.aorder;
  aorder.bucket_size = spec.threads_per_block();
  const DirectedGraph directed = DirectedGraph::FromRank(
      g, DirectionRank(g, options.direction, options.seed));
  TwoStepBuild out;
  out.perm = ComputeOrdering(g, directed, options.ordering, model, aorder,
                             options.seed);
  out.graph = ApplyPermutation(directed, out.perm);
  out.direction_cost = DirectionCost(directed);
  out.ordering_cost = OrderingImbalanceCost(directed.OutDegrees(), out.perm,
                                            aorder.bucket_size, model);
  return out;
}

void ExpectMatchesTwoStepBuild(const Graph& g, DirectionStrategy direction,
                               OrderingStrategy ordering,
                               const std::string& name) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  PreprocessOptions options;
  options.direction = direction;
  options.ordering = ordering;
  const std::string where =
      name + " " + ToString(direction) + "/" + ToString(ordering);
  const StatusOr<PreprocessResult> got =
      TryPreprocess(g, spec, options, ExecContext{});
  ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
  const TwoStepBuild want = BuildInTwoSteps(g, spec, options);
  EXPECT_EQ(got->graph.offsets(), want.graph.offsets()) << where;
  EXPECT_EQ(got->graph.adjacency(), want.graph.adjacency()) << where;
  EXPECT_EQ(got->graph.num_edges(), want.graph.num_edges()) << where;
  EXPECT_EQ(got->vertex_perm, want.perm) << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(got->direction_cost),
            std::bit_cast<uint64_t>(want.direction_cost))
      << where << ": Eq. 1 " << got->direction_cost << " vs "
      << want.direction_cost;
  EXPECT_EQ(std::bit_cast<uint64_t>(got->ordering_cost),
            std::bit_cast<uint64_t>(want.ordering_cost))
      << where << ": Eq. 3 " << got->ordering_cost << " vs "
      << want.ordering_cost;
}

constexpr OrderingStrategy kAllOrderings[] = {
    OrderingStrategy::kOriginal, OrderingStrategy::kDegree,
    OrderingStrategy::kAOrder,   OrderingStrategy::kDfs,
    OrderingStrategy::kBfsR,     OrderingStrategy::kSlashBurn,
    OrderingStrategy::kGro,      OrderingStrategy::kBfs,
    OrderingStrategy::kRcm,      OrderingStrategy::kRandom};

TEST(PreprocessTest, MatchesTheTwoStepBuild) {
  // Vertices 40..59 have no edges at all.
  EdgeList sparse(60);
  for (VertexId v = 0; v + 1 < 40; v += 2) sparse.Add(v, v + 1);
  for (VertexId v = 0; v + 3 < 40; v += 3) sparse.Add(v, v + 3);
  const std::vector<std::pair<std::string, Graph>> small = {
      {"rmat-9", GenerateRmat(9, 8, 72)},
      {"ws-600", GenerateWattsStrogatz(600, 6, 0.2, 3)},
      {"power-law", GeneratePowerLawConfiguration(800, 2.1, 2, 120, 9)},
      {"er", GenerateErdosRenyi(400, 1600, 4)},
      {"star", StarGraph(50)},
      {"path", PathGraph(50)},
      {"isolated", Graph::FromEdgeList(std::move(sparse))},
      {"empty", Graph()},
  };
  for (const auto& [name, g] : small) {
    for (DirectionStrategy direction : AllDirectionStrategies()) {
      for (OrderingStrategy ordering : kAllOrderings) {
        ExpectMatchesTwoStepBuild(g, direction, ordering, name);
      }
    }
  }
  // Above two 2^16-arc grains, so every per-vertex pass runs on the pool.
  const std::vector<std::pair<std::string, Graph>> large = {
      {"rmat-14", GenerateRmat(14, 16, 5)},
      {"ws-65536", GenerateWattsStrogatz(1 << 16, 8, 0.1, 6)},
  };
  for (const auto& [name, g] : large) {
    for (OrderingStrategy ordering :
         {OrderingStrategy::kOriginal, OrderingStrategy::kAOrder,
          OrderingStrategy::kRandom}) {
      ExpectMatchesTwoStepBuild(g, DirectionStrategy::kADirection, ordering,
                                name);
    }
  }
}

}  // namespace
}  // namespace gputc
