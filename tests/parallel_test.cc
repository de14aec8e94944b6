// Host-parallel stages against the sequential code they replaced. Two graphs
// large enough to split across threads pin, per counter, the triangle count
// and every KernelStats bit, and the CSR arrays FromRank and
// ApplyPermutation build. The digests were taken from the sequential code;
// any thread count must reproduce them. The contract tests then hold the
// parallel path to the executor's promises (cancellation within one block
// per thread, fail points on pool threads, the overflow text), and the pool
// tests pin SplitByArcs and ParallelFor themselves.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "direction/direction.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "obs/trace.h"
#include "order/ordering.h"
#include "order/resource_model.h"
#include "tc/cpu_counters.h"
#include "tc/registry.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace gputc {
namespace {

struct PinnedGraph {
  const char* name;
  Graph graph;
};

/// RMAT scale 14 with edge factor 16 (skewed) and a Watts-Strogatz ring of
/// 2^16 vertices with k = 8 (flat): both are several tasks' worth of arcs.
const std::vector<PinnedGraph>& PinnedGraphs() {
  static const std::vector<PinnedGraph>* const kGraphs =
      new std::vector<PinnedGraph>{
          {"rmat-14", GenerateRmat(14, 16, 5)},
          {"ws-65536", GenerateWattsStrogatz(1 << 16, 8, 0.1, 6)},
      };
  return *kGraphs;
}

constexpr TcAlgorithm kAllAlgorithms[] = {
    TcAlgorithm::kGunrockBinarySearch, TcAlgorithm::kGunrockSortMerge,
    TcAlgorithm::kTriCore,             TcAlgorithm::kFox,
    TcAlgorithm::kBisson,              TcAlgorithm::kHu,
    TcAlgorithm::kPolak};

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// FNV-1a over raw bytes, as differential_test folds KernelStats.
uint64_t Fnv(uint64_t digest, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    digest ^= p[i];
    digest *= 0x100000001b3ull;
  }
  return digest;
}

// Every field is 8 bytes, so the raw struct is its fields in declaration
// order with no padding: the same bytes differential_test folds.
static_assert(sizeof(KernelStats) == 12 * 8);

uint64_t CsrDigest(const DirectedGraph& d) {
  uint64_t digest = Fnv(kFnvBasis, d.offsets().data(),
                        d.offsets().size() * sizeof(EdgeCount));
  return Fnv(digest, d.adjacency().data(),
             d.adjacency().size() * sizeof(VertexId));
}

PreprocessOptions PaperOptions() {
  PreprocessOptions options;
  options.direction = DirectionStrategy::kADirection;
  options.ordering = OrderingStrategy::kAOrder;  // Fox: edge A-order.
  options.calibrate = false;
  return options;
}

constexpr int64_t kTriangles[] = {2837537, 286653};

/// Per graph (PinnedGraphs order) and counter (kAllAlgorithms order).
constexpr uint64_t kKernelStatsDigests[2][7] = {
    // rmat-14
    {0xfc16734feb07e5b2, 0x86aba69bdad93dfc, 0x99511562d63c6613,
     0x142800d6e66c4a3c, 0xfa2a4b45110c5131, 0x9c2973d15182e42b,
     0x553327358f22fda8},
    // ws-65536
    {0x6c798e59c1be3447, 0xb13dfd9391b4269a, 0xe9c4764f4f456b8b,
     0x91cd420f2c5ba45e, 0xf549194f76932e13, 0xa19e16e409d9ed07,
     0xa48c435bc55b86f6},
};

/// Per graph: FromRank under A-direction, then ApplyPermutation by A-order.
constexpr uint64_t kCsrDigests[2][2] = {
    {0x37f1cff0105653c3, 0xcd0fe1b5e68e8bce},  // rmat-14
    {0xab93813286afa345, 0x9bacad83f24a1667},  // ws-65536
};

TEST(PinnedDigestTest, CountersMatchTheSequentialCode) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const std::vector<PinnedGraph>& graphs = PinnedGraphs();
  for (size_t e = 0; e < graphs.size(); ++e) {
    for (size_t a = 0; a < std::size(kAllAlgorithms); ++a) {
      const RunResult run = RunTriangleCount(
          graphs[e].graph, kAllAlgorithms[a], spec, PaperOptions());
      EXPECT_EQ(run.triangles, kTriangles[e])
          << graphs[e].name << " / " << ToString(kAllAlgorithms[a]);
      const uint64_t digest = Fnv(kFnvBasis, &run.kernel, sizeof(run.kernel));
      EXPECT_EQ(digest, kKernelStatsDigests[e][a])
          << graphs[e].name << " / " << ToString(kAllAlgorithms[a])
          << ": KernelStats digest is 0x" << std::hex << digest;
    }
  }
}

TEST(PinnedDigestTest, CsrBuildsMatchTheSequentialCode) {
  const std::vector<PinnedGraph>& graphs = PinnedGraphs();
  for (size_t e = 0; e < graphs.size(); ++e) {
    const Graph& g = graphs[e].graph;
    const DirectedGraph directed = DirectedGraph::FromRank(
        g, DirectionRank(g, DirectionStrategy::kADirection));
    const Permutation perm =
        ComputeOrdering(g, directed, OrderingStrategy::kAOrder,
                        ResourceModel::Default());
    const uint64_t oriented = CsrDigest(directed);
    const uint64_t relabeled = CsrDigest(ApplyPermutation(directed, perm));
    EXPECT_EQ(oriented, kCsrDigests[e][0])
        << graphs[e].name << ": FromRank digest is 0x" << std::hex
        << oriented;
    EXPECT_EQ(relabeled, kCsrDigests[e][1])
        << graphs[e].name << ": ApplyPermutation digest is 0x" << std::hex
        << relabeled;
  }
}

/// Holds ParallelismLimit() requests in flight, so every loop runs at width
/// 1: the sequential path, for comparison.
class WidthOne {
 public:
  WidthOne() {
    for (int i = 0; i < ParallelismLimit(); ++i) {
      scopes_.push_back(std::make_unique<ParallelRequestScope>());
    }
  }

 private:
  std::vector<std::unique_ptr<ParallelRequestScope>> scopes_;
};

/// The "threads" attribute of the first span named `name`, or -1.
int64_t ThreadsOf(const Tracer& tracer, const std::string& name) {
  for (const SpanRecord& span : tracer.Snapshot()) {
    if (span.name != name) continue;
    for (const auto& [key, value] : span.attrs) {
      if (key == "threads") return std::stoll(value);
    }
  }
  return -1;
}

/// The rmat-14 pinned graph, preprocessed once with A-direction + A-order.
const DirectedGraph& PreprocessedRmat() {
  static const DirectedGraph* const kGraph = new DirectedGraph(
      Preprocess(PinnedGraphs()[0].graph, DeviceSpec::TitanXpLike(),
                 PaperOptions())
          .graph);
  return *kGraph;
}

/// Threads a loop over PreprocessedRmat()'s arcs runs on when no request is
/// in flight: one per grain of arcs, up to the hardware threads.
int64_t RmatThreads() {
  return std::min<int64_t>(ParallelismLimit(),
                           PreprocessedRmat().num_edges() / kParallelGrain);
}

class ParallelContractTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Instance().Reset(); }
  void TearDown() override { FailPointRegistry::Instance().Reset(); }

  const DeviceSpec spec_ = DeviceSpec::TitanXpLike();
};

TEST_F(ParallelContractTest, PriceAndExactSpansNestUnderTheCounterSpan) {
  Tracer tracer;
  ExecContext ctx;
  ctx.tracer = &tracer;
  ctx.trace_id = tracer.NewTraceId();
  ASSERT_TRUE(MakeCounter(TcAlgorithm::kHu)
                  ->TryCount(PreprocessedRmat(), spec_, ctx)
                  .ok());
  uint64_t hu = 0;
  for (const SpanRecord& span : tracer.Snapshot()) {
    if (span.name == "tc.hu") hu = span.span_id;
  }
  ASSERT_NE(hu, 0u);
  for (const SpanRecord& span : tracer.Snapshot()) {
    if (span.name == "tc.price" || span.name == "tc.exact") {
      EXPECT_EQ(span.parent_id, hu) << span.name;
    }
  }
  ASSERT_GE(PreprocessedRmat().num_edges(), 3 * kParallelGrain);
  EXPECT_EQ(ThreadsOf(tracer, "tc.price"), RmatThreads());
  EXPECT_EQ(ThreadsOf(tracer, "tc.exact"), RmatThreads());
}

TEST_F(ParallelContractTest, CancellationIsObservedWithinOneBlockPerThread) {
  // Every hit from the third on cancels, so each thread's next poll sees a
  // cancellation it raised itself: at most one further hit per other
  // thread, whatever the interleaving.
  ExecContext ctx;
  FailPointRegistry::Instance().SetObserver("tc.block", [&ctx](int64_t hit) {
    if (hit >= 3) ctx.cancel.Cancel("cancelled by test observer");
  });
  FailPointScope scope;
  const StatusOr<TcResult> run =
      MakeCounter(TcAlgorithm::kHu)->TryCount(PreprocessedRmat(), spec_, ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_NE(run.status().ToString().find("cancelled by test observer"),
            std::string::npos);
  const int64_t hits = FailPointRegistry::Instance().hits("tc.block");
  EXPECT_GE(hits, 3);
  EXPECT_LE(hits, 3 + ParallelismLimit() - 1)
      << "a thread kept pricing past the cancellation";
}

TEST_F(ParallelContractTest, ArmedBlockFaultFailsTheAttempt) {
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("tc.block=internal@3").ok());
  FailPointScope scope;
  const StatusOr<TcResult> run = MakeCounter(TcAlgorithm::kHu)
                                     ->TryCount(PreprocessedRmat(), spec_,
                                                ExecContext{});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().ToString().find("fail point 'tc.block' fired"),
            std::string::npos)
      << run.status().ToString();
}

TEST_F(ParallelContractTest, CountLimitOverflowReadsAsAtWidthOne) {
  ExecContext ctx;
  ctx.count_limit = kTriangles[0] - 1;
  Tracer tracer;
  ctx.tracer = &tracer;
  ctx.trace_id = tracer.NewTraceId();
  const StatusOr<int64_t> parallel =
      TryCountTrianglesDirected(PreprocessedRmat(), ctx);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ThreadsOf(tracer, "tc.exact"), RmatThreads());

  const WidthOne width_one;
  ctx.tracer = nullptr;
  const StatusOr<int64_t> sequential =
      TryCountTrianglesDirected(PreprocessedRmat(), ctx);
  ASSERT_FALSE(sequential.ok());
  EXPECT_EQ(parallel.status().ToString(), sequential.status().ToString());

  ctx.count_limit = kTriangles[0];
  const StatusOr<int64_t> exact =
      TryCountTrianglesDirected(PreprocessedRmat(), ctx);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(*exact, kTriangles[0]);
}

/// Arc prefix of `n` items of `weight` arcs each.
std::vector<int64_t> UniformArcs(int64_t n, int64_t weight) {
  std::vector<int64_t> arcs(static_cast<size_t>(n) + 1);
  for (int64_t i = 0; i <= n; ++i) arcs[static_cast<size_t>(i)] = i * weight;
  return arcs;
}

TEST(ParallelPoolTest, BelowTwoGrainsOneTaskRunsInline) {
  const ParallelSplit split =
      SplitByArcs(UniformArcs(100, (2 * kParallelGrain - 1) / 100));
  EXPECT_EQ(split.threads, 1);
  EXPECT_EQ(split.bounds, (std::vector<int64_t>{0, 100}));
  EXPECT_EQ(SplitByArcs(std::vector<int64_t>{0}).bounds,
            (std::vector<int64_t>{0, 0}));
}

TEST(ParallelPoolTest, SplitsCoverTheItemsInOrderAtTheAllowedWidth) {
  const std::vector<int64_t> arcs = UniformArcs(1000, kParallelGrain);
  const ParallelSplit split = SplitByArcs(arcs);
  EXPECT_EQ(split.threads, ParallelismLimit());
  EXPECT_EQ(split.tasks() % split.threads, 0);
  EXPECT_EQ(split.bounds.front(), 0);
  EXPECT_EQ(split.bounds.back(), 1000);
  EXPECT_TRUE(std::is_sorted(split.bounds.begin(), split.bounds.end()));
  {
    const ParallelRequestScope one;
    const ParallelRequestScope two;
    EXPECT_EQ(SplitByArcs(arcs).threads, std::max(1, ParallelismLimit() / 2));
    const WidthOne saturated;
    EXPECT_EQ(SplitByArcs(arcs).tasks(), 1);
  }
  EXPECT_EQ(SplitByArcs(arcs).threads, ParallelismLimit());
}

TEST(ParallelPoolTest, EveryItemRunsOnceAndThreadsKeepTheirScratch) {
  const ParallelSplit split = SplitByArcs(UniformArcs(1000, kParallelGrain));
  std::vector<std::atomic<int>> visits(1000);
  std::vector<std::atomic<int>> running(static_cast<size_t>(split.threads));
  std::atomic<bool> shared_scratch{false};
  ASSERT_TRUE(ParallelFor(split, [&](const ParallelTask& task) {
                if (running[task.thread].fetch_add(1) != 0) {
                  shared_scratch = true;
                }
                for (int64_t i = task.begin; i < task.end; ++i) ++visits[i];
                running[task.thread].fetch_sub(1);
                return OkStatus();
              }).ok());
  for (const std::atomic<int>& count : visits) EXPECT_EQ(count.load(), 1);
  EXPECT_FALSE(shared_scratch) << "two threads ran as one thread index";
}

TEST(ParallelPoolTest, TasksInheritTheCallersFailPointScope) {
  const ParallelSplit split = SplitByArcs(UniformArcs(1000, kParallelGrain));
  std::atomic<int> in_scope{0};
  const auto body = [&](const ParallelTask&) {
    if (FailPointScope::active()) ++in_scope;
    return OkStatus();
  };
  ASSERT_TRUE(ParallelFor(split, body).ok());
  EXPECT_EQ(in_scope.load(), 0);
  FailPointScope scope;
  ASSERT_TRUE(ParallelFor(split, body).ok());
  EXPECT_EQ(in_scope.load(), split.tasks());
}

TEST(ParallelPoolTest, AFailedTaskStopsTheLoopAndReturnsItsError) {
  const ParallelSplit split = SplitByArcs(UniformArcs(1000, kParallelGrain));
  std::atomic<int> started{0};
  const Status status = ParallelFor(split, [&](const ParallelTask& task) {
    ++started;
    return task.index == 0 ? InternalError("task 0 failed") : OkStatus();
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("task 0 failed"), std::string::npos);
  EXPECT_LE(started.load(), split.tasks());
  if (split.threads == 1) {
    EXPECT_EQ(started.load(), 1);
  }
}

}  // namespace
}  // namespace gputc
