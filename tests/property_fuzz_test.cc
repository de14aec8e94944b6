#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "direction/cost_model.h"
#include "direction/direction.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "graph/validate.h"
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

// -- canonical CSR check -----------------------------------------------------

struct Csr {
  std::vector<EdgeCount> offsets = {0};
  std::vector<VertexId> adj;

  std::span<VertexId> Row(VertexId u) {
    return {adj.data() + offsets[u],
            static_cast<size_t>(offsets[u + 1] - offsets[u])};
  }
};

Csr CsrOf(const Graph& g) { return Csr{g.offsets(), g.adjacency()}; }

/// Oracle for Graph::FromCsr's canonical check, sharing no code with it: the
/// listed (u, v) pairs, as a set, contain no (u, u) and are closed under
/// reversal, and every row is strictly increasing.
bool OracleCanonical(const Csr& csr) {
  std::set<std::pair<VertexId, VertexId>> pairs;
  for (size_t u = 0; u + 1 < csr.offsets.size(); ++u) {
    const std::vector<VertexId> row(csr.adj.begin() + csr.offsets[u],
                                    csr.adj.begin() + csr.offsets[u + 1]);
    if (std::adjacent_find(row.begin(), row.end(),
                           std::greater_equal<VertexId>()) != row.end()) {
      return false;
    }
    for (VertexId v : row) pairs.emplace(static_cast<VertexId>(u), v);
  }
  for (const auto& [u, v] : pairs) {
    if (u == v || pairs.count({v, u}) == 0) return false;
  }
  return true;
}

/// Runs FromCsr on `csr`, which passes GraphDoctor::CheckCsr, and holds it
/// to the oracle: the same verdict, a DataLoss naming the defect as "not
/// canonical" on rejection, and on acceptance exactly the graph FromEdgeList
/// builds from the same edges. Returns whether FromCsr accepted.
bool ExpectFromCsrMatchesOracle(const Csr& csr) {
  const bool canonical = OracleCanonical(csr);
  const StatusOr<Graph> g = Graph::FromCsr(csr.offsets, csr.adj);
  EXPECT_EQ(g.ok(), canonical) << (g.ok() ? "accepted" : g.status().ToString());
  if (!g.ok()) {
    EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(g.status().message().find("not canonical"), std::string::npos)
        << g.status().ToString();
    return false;
  }
  const VertexId n = static_cast<VertexId>(csr.offsets.size() - 1);
  EdgeList edges(n);
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeCount i = csr.offsets[u]; i < csr.offsets[u + 1]; ++i) {
      if (u < csr.adj[i]) edges.Add(u, csr.adj[i]);
    }
  }
  const Graph expected = Graph::FromEdgeList(std::move(edges));
  EXPECT_EQ(g->num_edges(), expected.num_edges());
  EXPECT_EQ(g->offsets(), expected.offsets());
  EXPECT_EQ(g->adjacency(), expected.adjacency());
  return true;
}

TEST(CanonicalCsrTest, RandomSmallCsrsAgreeWithOracle) {
  Rng rng(61);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const VertexId n = 1 + rng.NextU32(5);
    Csr csr;
    for (VertexId u = 0; u < n; ++u) {
      std::vector<VertexId> row;
      for (VertexId v = 0; v < n; ++v) {
        if (rng.NextBernoulli(0.35)) row.push_back(v);
      }
      if (row.size() >= 2 && rng.NextBernoulli(0.1)) std::swap(row[0], row[1]);
      if (!row.empty() && rng.NextBernoulli(0.1)) row.push_back(row.back());
      csr.adj.insert(csr.adj.end(), row.begin(), row.end());
      csr.offsets.push_back(static_cast<EdgeCount>(csr.adj.size()));
    }
    if (csr.adj.size() % 2 == 1) {  // CheckCsr wants 2m entries.
      csr.adj.push_back(rng.NextU32(n));
      ++csr.offsets.back();
    }
    ASSERT_TRUE(GraphDoctor::CheckCsr(n, csr.adj.size() / 2, csr.offsets,
                                      csr.adj)
                    .ok());
    (ExpectFromCsrMatchesOracle(csr) ? accepted : rejected)++;
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST_P(FuzzTest, CanonicalCheckAgreesWithOracleOnSingleMutations) {
  const Graph g = MakeGraph(GetParam());
  EXPECT_TRUE(ExpectFromCsrMatchesOracle(CsrOf(g)));
  Rng rng(GetParam().seed);
  // A vertex with at least `min_degree` neighbors, or n when there is none.
  const auto pick_row = [&](EdgeCount min_degree) {
    for (int tries = 0; tries < 1000; ++tries) {
      const VertexId u = rng.NextU32(g.num_vertices());
      if (g.degree(u) >= min_degree) return u;
    }
    return g.num_vertices();
  };
  int mutated = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Csr csr = CsrOf(g);
    const int mutation = trial % 4;
    const VertexId u = pick_row(mutation == 0 || mutation == 2 ? 2 : 1);
    if (u == g.num_vertices()) continue;
    std::span<VertexId> row = csr.Row(u);
    const size_t i = rng.NextBounded(row.size());
    if (mutation == 0) {  // Swap two entries of one row.
      const size_t j = (i + 1 + rng.NextBounded(row.size() - 1)) % row.size();
      std::swap(row[i], row[j]);
    } else if (mutation == 1) {  // Move a mirror: same counts, new target.
      VertexId w = rng.NextU32(g.num_vertices());
      while (w == u || g.HasEdge(u, w)) w = (w + 1) % g.num_vertices();
      row[i] = w;
      std::sort(row.begin(), row.end());
    } else if (mutation == 2) {  // Duplicate an entry over its neighbor.
      row[i == 0 ? 1 : i - 1] = row[i];
      std::sort(row.begin(), row.end());
    } else {  // Add a self loop in place of an entry.
      row[i] = u;
      std::sort(row.begin(), row.end());
    }
    // Each mutation leaves a defect, so the oracle and FromCsr both refuse.
    EXPECT_FALSE(ExpectFromCsrMatchesOracle(csr)) << "mutation " << mutation;
    ++mutated;
  }
  EXPECT_GT(mutated, 30);
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
