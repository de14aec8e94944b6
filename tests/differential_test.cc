// Differential harness: every simulated counter, across direction and
// ordering strategies, must agree with the exact brute-force count on a
// corpus of structurally diverse graphs. This is the paper's core
// correctness claim (preprocessing never changes the triangle count, and
// all seven kernel models count the same set), checked exhaustively. The
// same sweep pins every counter's modelled KernelStats to a committed digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "tc/cpu_counters.h"
#include "tc/registry.h"

namespace gputc {
namespace {

struct CorpusEntry {
  std::string name;
  Graph graph;
};

Graph StarOn64() {
  EdgeList list(64);
  for (VertexId leaf = 1; leaf < 64; ++leaf) list.Add(0, leaf);
  list.Normalize();
  return Graph::FromEdgeList(std::move(list));
}

/// Five 5-cliques chained by a bridge edge between consecutive cliques:
/// dense pockets (every counter's triangle-heavy path) joined by
/// triangle-free bridges.
Graph CliqueChain() {
  EdgeList list(25);
  for (VertexId clique = 0; clique < 5; ++clique) {
    const VertexId base = clique * 5;
    for (VertexId i = 0; i < 5; ++i) {
      for (VertexId j = i + 1; j < 5; ++j) {
        list.Add(base + i, base + j);
      }
    }
    if (clique > 0) list.Add(base - 1, base);
  }
  list.Normalize();
  return Graph::FromEdgeList(std::move(list));
}

Graph SingleEdge() {
  EdgeList list(2);
  list.Add(0, 1);
  return Graph::FromEdgeList(std::move(list));
}

std::vector<CorpusEntry> Corpus() {
  std::vector<CorpusEntry> corpus;
  corpus.push_back(
      {"power-law", GeneratePowerLawConfiguration(300, 2.3, 2, 40, 11)});
  corpus.push_back({"uniform", GenerateErdosRenyi(200, 800, 12)});
  corpus.push_back({"star", StarOn64()});
  corpus.push_back({"clique-chain", CliqueChain()});
  corpus.push_back({"empty", Graph::FromEdgeList(EdgeList(0))});
  corpus.push_back({"edgeless", Graph::FromEdgeList(EdgeList(50))});
  corpus.push_back({"single-edge", SingleEdge()});
  return corpus;
}

constexpr TcAlgorithm kAllAlgorithms[] = {
    TcAlgorithm::kGunrockBinarySearch, TcAlgorithm::kGunrockSortMerge,
    TcAlgorithm::kTriCore,             TcAlgorithm::kFox,
    TcAlgorithm::kBisson,              TcAlgorithm::kHu,
    TcAlgorithm::kPolak};

/// FNV-1a over the bit pattern of every KernelStats field, in declaration
/// order: any change to any modelled figure changes the digest.
uint64_t FoldKernelStats(uint64_t digest, const KernelStats& k) {
  const auto fold = [&digest](const auto& field) {
    unsigned char bytes[sizeof(field)];
    std::memcpy(bytes, &field, sizeof(field));
    for (unsigned char byte : bytes) {
      digest ^= byte;
      digest *= 0x100000001b3ull;
    }
  };
  fold(k.cycles);
  fold(k.millis);
  fold(k.num_blocks);
  fold(k.supersteps);
  fold(k.total_ops);
  fold(k.total_transactions);
  fold(k.total_shared_transactions);
  fold(k.compute_cycles);
  fold(k.memory_cycles);
  fold(k.shared_cycles);
  fold(k.sync_cycles);
  fold(k.sm_utilization);
  return digest;
}

/// The cost-model contract: per corpus graph (rows, Corpus() order) and
/// counter (columns, kAllAlgorithms order), the FoldKernelStats digest of all
/// 2 directions x 4 orderings. Refactors of the counters must reproduce every
/// modelled figure bit for bit; a deliberate cost-model change regenerates
/// this table (the failure message prints each new value).
constexpr uint64_t kKernelStatsDigests[7][7] = {
    // power-law
    {0xc5385ebedd3234eb, 0xac79dc0101692418, 0x0e673fb64db5447b,
     0x8f6454900228065e, 0xf7c71f9230d07941, 0x69d2c1387e48e17e,
     0x74ba0745f1c905e0},
    // uniform
    {0x160b682d316c7ee3, 0x5887c87862f61ef3, 0xc0a984399b7fd6cf,
     0xc6ed5a75bea5d1d2, 0xbabf30889881d2b4, 0x04223841ce5d8c59,
     0x0381c16415c63f82},
    // star
    {0x8ed7a6dfd1ae5925, 0x2da18308990fac45, 0x8ed7a6dfd1ae5925,
     0x8ed7a6dfd1ae5925, 0x82104fe5baf9d275, 0x3c81404f89a25125,
     0x8ed7a6dfd1ae5925},
    // clique-chain
    {0x78099afa91f7da77, 0x3be1b1e21c73829f, 0x5673e1db173b2d07,
     0x6c78ec4f1c6150fd, 0xf8d672e86395c385, 0xdf1bc7e1fec218d1,
     0x0d75b062122535b9},
    // empty
    {0x9fa9e040e0eedf25, 0x9fa9e040e0eedf25, 0x9fa9e040e0eedf25,
     0x9fa9e040e0eedf25, 0x9fa9e040e0eedf25, 0x9fa9e040e0eedf25,
     0x9fa9e040e0eedf25},
    // edgeless
    {0x8ed7a6dfd1ae5925, 0x8ed7a6dfd1ae5925, 0x8ed7a6dfd1ae5925,
     0x9fa9e040e0eedf25, 0x9fa9e040e0eedf25, 0x8ed7a6dfd1ae5925,
     0x8ed7a6dfd1ae5925},
    // single-edge
    {0x8ed7a6dfd1ae5925, 0x1560f09d824bc075, 0x8ed7a6dfd1ae5925,
     0x8ed7a6dfd1ae5925, 0xc4be713a5aafa065, 0x015a12844e5c44c5,
     0x8ed7a6dfd1ae5925},
};

TEST(DifferentialTest, AllCountersAllStrategiesAgreeWithBruteForce) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const std::vector<CorpusEntry> corpus = Corpus();
  ASSERT_EQ(corpus.size(), std::size(kKernelStatsDigests));
  for (size_t e = 0; e < corpus.size(); ++e) {
    const CorpusEntry& entry = corpus[e];
    const int64_t expected = CountTrianglesNodeIterator(entry.graph);
    for (size_t a = 0; a < std::size(kAllAlgorithms); ++a) {
      const TcAlgorithm algorithm = kAllAlgorithms[a];
      uint64_t digest = 0xcbf29ce484222325ull;
      for (DirectionStrategy direction :
           {DirectionStrategy::kIdBased, DirectionStrategy::kADirection}) {
        // Fox under kAOrder takes the pipeline's edge-A-order path.
        for (OrderingStrategy ordering :
             {OrderingStrategy::kOriginal, OrderingStrategy::kAOrder,
              OrderingStrategy::kDegree, OrderingStrategy::kRandom}) {
          PreprocessOptions options;
          options.direction = direction;
          options.ordering = ordering;
          options.calibrate = false;  // Keep the 7x2x4 sweep fast.
          const RunResult run =
              RunTriangleCount(entry.graph, algorithm, spec, options);
          EXPECT_EQ(run.triangles, expected)
              << entry.name << " / " << ToString(algorithm) << " / "
              << ToString(direction) << " / " << ToString(ordering);
          digest = FoldKernelStats(digest, run.kernel);
        }
      }
      EXPECT_EQ(digest, kKernelStatsDigests[e][a])
          << entry.name << " / " << ToString(algorithm) << ": KernelStats "
          << "digest is 0x" << std::hex << digest;
    }
  }
}

TEST(DifferentialTest, BruteForceCountersAgreeOnCorpus) {
  for (const CorpusEntry& entry : Corpus()) {
    const int64_t node_it = CountTrianglesNodeIterator(entry.graph);
    EXPECT_EQ(CountTrianglesEdgeIterator(entry.graph), node_it) << entry.name;
    EXPECT_EQ(CountTrianglesForward(entry.graph), node_it) << entry.name;
  }
}

// Attaching a tracer must not perturb any count: instrumentation observes
// the pipeline, it never participates in it.
TEST(DifferentialTest, TracedRunsMatchUntracedRuns) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const Graph g = GeneratePowerLawConfiguration(300, 2.3, 2, 40, 11);
  const int64_t expected = CountTrianglesNodeIterator(g);
  for (TcAlgorithm algorithm : kAllAlgorithms) {
    Tracer tracer;
    ExecContext ctx;
    ctx.tracer = &tracer;
    ctx.trace_id = tracer.NewTraceId();
    PreprocessOptions options;
    options.calibrate = false;
    const StatusOr<RunResult> run =
        RunTriangleCountWithContext(g, algorithm, spec, options, ctx);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->triangles, expected) << ToString(algorithm);
    // The run must have left stage spans behind (direct, order, count, and
    // the counter's own span at minimum).
    EXPECT_GE(tracer.size(), 4u) << ToString(algorithm);
  }
}

}  // namespace
}  // namespace gputc
