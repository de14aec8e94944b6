#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/pipeline.h"
#include "core/prep_cache.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "tc/cpu_counters.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace gputc {
namespace {

/// The fail-point site each simulated counter injects at its entry.
std::string CounterSite(TcAlgorithm algorithm) {
  switch (algorithm) {
    case TcAlgorithm::kGunrockBinarySearch:
    case TcAlgorithm::kGunrockSortMerge:
      return "tc.gunrock";
    case TcAlgorithm::kTriCore:
      return "tc.tricore";
    case TcAlgorithm::kFox:
      return "tc.fox";
    case TcAlgorithm::kBisson:
      return "tc.bisson";
    case TcAlgorithm::kHu:
      return "tc.hu";
    case TcAlgorithm::kPolak:
      return "tc.polak";
  }
  return "tc.unknown";
}

/// Every test wipes the registry on entry and exit so an ambient
/// GPUTC_FAILPOINTS (or a sibling test) cannot perturb its schedule.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Instance().Reset(); }
  void TearDown() override { FailPointRegistry::Instance().Reset(); }

  static std::vector<FallbackStage> GpuThenCpu(TcAlgorithm algorithm) {
    return {FallbackStage{false, algorithm}, FallbackStage{true}};
  }

  const Graph g_ = GeneratePowerLawConfiguration(400, 2.1, 2, 60, 71);
  const int64_t expected_ = CountTrianglesNodeIterator(g_);
  const DeviceSpec spec_ = DeviceSpec::TitanXpLike();
};

TEST_F(ExecutorTest, CleanRunSucceedsOnFirstAttempt) {
  ExecutionTrace trace;
  const StatusOr<ExecutionResult> result = ExecuteResilient(
      g_, spec_, ExecutionPolicy{}, {FallbackStage{false, TcAlgorithm::kHu}},
      PreprocessOptions{}, &trace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->run.triangles, expected_);
  EXPECT_EQ(result->stage, "Hu");
  EXPECT_EQ(result->variant, "base");
  ASSERT_EQ(trace.attempts.size(), 1u);
  EXPECT_TRUE(trace.attempts[0].status.ok());
}

TEST_F(ExecutorTest, FaultMatrixEveryCounterFallsBackToCpu) {
  // Arm each counter's entry site in turn: all of its degraded variants must
  // fail with the injected error and the cpu stage must still deliver the
  // exact count.
  for (TcAlgorithm algorithm : PaperAlgorithms()) {
    FailPointRegistry::Instance().Reset();
    const std::string site = CounterSite(algorithm);
    ASSERT_TRUE(
        FailPointRegistry::Instance().ArmFromString(site + "=internal").ok());

    ExecutionTrace trace;
    const StatusOr<ExecutionResult> result =
        ExecuteResilient(g_, spec_, ExecutionPolicy{}, GpuThenCpu(algorithm),
                         PreprocessOptions{}, &trace);
    ASSERT_TRUE(result.ok()) << ToString(algorithm) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->run.triangles, expected_) << ToString(algorithm);
    EXPECT_EQ(result->stage, "cpu") << ToString(algorithm);
    ASSERT_EQ(trace.attempts.size(), 4u) << ToString(algorithm);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(trace.attempts[i].status.code(), StatusCode::kInternal)
          << ToString(algorithm) << " attempt " << i;
    }
    EXPECT_EQ(FailPointRegistry::Instance().hits(site), 3)
        << ToString(algorithm);
  }
}

TEST_F(ExecutorTest, DegradationLadderWalksVariantsInOrder) {
  // The fault clears after two hits, so the stage recovers on its own third
  // (most degraded) variant without reaching the next stage.
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("tc.hu=internal@2").ok());
  ExecutionTrace trace;
  const StatusOr<ExecutionResult> result = ExecuteResilient(
      g_, spec_, ExecutionPolicy{}, {FallbackStage{false, TcAlgorithm::kHu}},
      PreprocessOptions{}, &trace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->run.triangles, expected_)
      << "degraded preprocessing must not change the count";
  EXPECT_EQ(result->variant, "no-adirection");
  ASSERT_EQ(trace.attempts.size(), 3u);
  EXPECT_EQ(trace.attempts[0].variant, "base");
  EXPECT_EQ(trace.attempts[1].variant, "no-aorder");
  EXPECT_EQ(trace.attempts[2].variant, "no-adirection");
}

TEST_F(ExecutorTest, OnStageHookSeesValidateAndEveryAttempt) {
  // The progress hook isolated workers use for per-stage heartbeats: it must
  // fire for the up-front validation pass and once per stage/variant
  // attempt, in execution order.
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("tc.hu=internal@1").ok());
  std::vector<std::string> stages;
  ExecutionPolicy policy;
  policy.on_stage = [&stages](const std::string& stage) {
    stages.push_back(stage);
  };
  const StatusOr<ExecutionResult> result =
      ExecuteResilient(g_, spec_, policy, GpuThenCpu(TcAlgorithm::kHu),
                       PreprocessOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0], "validate");
  EXPECT_EQ(stages[1], "Hu/base");
  EXPECT_EQ(stages[2], "Hu/no-aorder");
}

TEST_F(ExecutorTest, TransientFaultRecoversOnFirstRetry) {
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("tc.hu=internal@1").ok());
  const StatusOr<ExecutionResult> result = ExecuteResilient(
      g_, spec_, ExecutionPolicy{}, {FallbackStage{false, TcAlgorithm::kHu}},
      PreprocessOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->variant, "no-aorder");
  EXPECT_EQ(result->run.triangles, expected_);
}

TEST_F(ExecutorTest, PreprocessFaultSkipsToCpuStage) {
  // The preprocess site fires on every GPU variant (degradation cannot avoid
  // it), so only the cpu stage — which never preprocesses — can answer.
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("preprocess=internal").ok());
  ExecutionTrace trace;
  const StatusOr<ExecutionResult> result =
      ExecuteResilient(g_, spec_, ExecutionPolicy{},
                       GpuThenCpu(TcAlgorithm::kHu), PreprocessOptions{}, &trace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, "cpu");
  EXPECT_EQ(result->run.triangles, expected_);
  EXPECT_EQ(FailPointRegistry::Instance().hits("preprocess"), 3);
}

TEST_F(ExecutorTest, CalibrationFaultRecoversByDroppingCalibration) {
  // sim.memory only fires inside model calibration; the ladder's last rung
  // turns calibration off, so the stage heals itself.
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("sim.memory=internal").ok());
  ExecutionTrace trace;
  const StatusOr<ExecutionResult> result = ExecuteResilient(
      g_, spec_, ExecutionPolicy{}, {FallbackStage{false, TcAlgorithm::kHu}},
      PreprocessOptions{}, &trace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->variant, "no-adirection");
  EXPECT_EQ(result->run.triangles, expected_);
}

TEST_F(ExecutorTest, ExhaustedChainReportsResourceExhausted) {
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .ArmFromString("tc.hu=internal;tc.cpu=internal")
                  .ok());
  ExecutionTrace trace;
  const StatusOr<ExecutionResult> result =
      ExecuteResilient(g_, spec_, ExecutionPolicy{},
                       GpuThenCpu(TcAlgorithm::kHu), PreprocessOptions{}, &trace);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("fallback attempt"),
            std::string::npos);
  EXPECT_EQ(trace.attempts.size(), 4u);
}

TEST_F(ExecutorTest, TinyDeadlineStopsTheChainEarly) {
  ExecutionPolicy policy;
  policy.deadline = Deadline::AfterMillis(0.0001);
  ExecutionTrace trace;
  const StatusOr<ExecutionResult> result =
      ExecuteResilient(g_, spec_, policy,
                       {FallbackStage{false, TcAlgorithm::kHu},
                        FallbackStage{false, TcAlgorithm::kPolak},
                        FallbackStage{true}},
                       PreprocessOptions{}, &trace);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // An expired clock must end the chain, not burn the full 7-attempt matrix.
  EXPECT_LT(trace.attempts.size(), 7u);
}

TEST_F(ExecutorTest, CancellationIsObservedWithinOneBlock) {
  // Cancel from the per-block fail-point observer: the counter must notice
  // at its next block poll, so the site records exactly 3 hits. Hu buckets
  // threads_per_block vertex ids per block, so cross 4 blocks needs a graph
  // with several thousand vertices.
  const Graph big = GenerateRmat(13, 8, 72);
  ExecContext ctx;
  FailPointRegistry::Instance().SetObserver(
      "tc.block", [&ctx](int64_t hit) {
        if (hit == 3) ctx.cancel.Cancel("cancelled by test observer");
      });
  FailPointScope scope;
  const StatusOr<RunResult> run = RunTriangleCountWithContext(
      big, TcAlgorithm::kHu, spec_, PreprocessOptions{}, ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_NE(run.status().ToString().find("cancelled by test observer"),
            std::string::npos);
  EXPECT_EQ(FailPointRegistry::Instance().hits("tc.block"), 3)
      << "counter kept working past the cancellation point";
}

TEST_F(ExecutorTest, CancellationStopsFoxsEdgeOrder) {
  // Fox's edge order is preprocessing and polls the request's context:
  // cancelled once the order starts, the request ends CANCELLED there,
  // without the order's bins being packed or the kernel being counted.
  const Graph big = GenerateRmat(13, 8, 72);
  Tracer tracer;
  ExecContext ctx;
  ctx.tracer = &tracer;
  ctx.trace_id = tracer.NewTraceId();
  FailPointRegistry::Instance().SetObserver(
      "aorder.edges",
      [&ctx](int64_t) { ctx.cancel.Cancel("cancelled by test observer"); });
  FailPointScope scope;
  const StatusOr<RunResult> run = RunTriangleCountWithContext(
      big, TcAlgorithm::kFox, spec_, PreprocessOptions{}, ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_NE(run.status().ToString().find("aorder.edges"), std::string::npos)
      << run.status().ToString();
  EXPECT_EQ(FailPointRegistry::Instance().hits("aorder.edges"), 1);
  int edge_order_spans = 0;
  for (const SpanRecord& span : tracer.Snapshot()) {
    EXPECT_NE(span.name, "count") << "the kernel ran after the cancellation";
    EXPECT_NE(span.name, "aorder.pass");
    if (span.name != "aorder.edges") continue;
    ++edge_order_spans;
    const auto status = std::find_if(
        span.attrs.begin(), span.attrs.end(),
        [](const auto& attr) { return attr.first == "status"; });
    ASSERT_NE(status, span.attrs.end());
    EXPECT_EQ(status->second, "CANCELLED");
  }
  EXPECT_EQ(edge_order_spans, 1);
}

TEST_F(ExecutorTest, CountLimitSurfacesOverflowWithoutWrapping) {
  // 400-vertex power-law graph against a 5-triangle ceiling: every stage
  // (GPU variants and the cpu fallback) must refuse to wrap.
  ExecutionPolicy policy;
  policy.count_limit = 5;
  ExecutionTrace trace;
  const StatusOr<ExecutionResult> result =
      ExecuteResilient(g_, spec_, policy, GpuThenCpu(TcAlgorithm::kHu),
                       PreprocessOptions{}, &trace);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  ASSERT_EQ(trace.attempts.size(), 4u);
  for (const AttemptRecord& attempt : trace.attempts) {
    EXPECT_EQ(attempt.status.code(), StatusCode::kOutOfRange)
        << attempt.stage << "/" << attempt.variant;
  }
}

TEST_F(ExecutorTest, MemoryBudgetIsCheckedBeforeAnyAttempt) {
  ExecutionPolicy policy;
  policy.mem_budget_bytes = 16;
  ExecutionTrace trace;
  const StatusOr<ExecutionResult> result = ExecuteResilient(
      g_, spec_, policy, {FallbackStage{false, TcAlgorithm::kHu}},
      PreprocessOptions{}, &trace);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("budget"), std::string::npos);
  EXPECT_TRUE(trace.attempts.empty());
}

TEST_F(ExecutorTest, MemoryBudgetReservesAMarkArrayPerHostThread) {
  // The exact count holds one n-byte mark array per host thread; a budget
  // that covers everything else but not those arrays must refuse.
  const int64_t marks =
      static_cast<int64_t>(ParallelismLimit()) * g_.num_vertices();
  ExecutionPolicy policy;
  policy.mem_budget_bytes = EstimateHostBytes(g_) - marks;
  const StatusOr<ExecutionResult> refused = ExecuteResilient(
      g_, spec_, policy, {FallbackStage{false, TcAlgorithm::kHu}},
      PreprocessOptions{});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().ToString().find("budget"), std::string::npos);

  policy.mem_budget_bytes = EstimateHostBytes(g_);
  EXPECT_TRUE(ExecuteResilient(g_, spec_, policy,
                               {FallbackStage{false, TcAlgorithm::kHu}},
                               PreprocessOptions{})
                  .ok());
}

TEST_F(ExecutorTest, ModelCeilingBreachFallsBackToCpu) {
  // The GPU result is numerically correct but the modelled device misses an
  // impossible kernel budget; the host stage has no modelled time and wins.
  ExecutionPolicy policy;
  policy.max_model_ms = 1e-9;
  ExecutionTrace trace;
  const StatusOr<ExecutionResult> result =
      ExecuteResilient(g_, spec_, policy, GpuThenCpu(TcAlgorithm::kHu),
                       PreprocessOptions{}, &trace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, "cpu");
  EXPECT_EQ(result->run.triangles, expected_);
  ASSERT_EQ(trace.attempts.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(trace.attempts[i].status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(trace.attempts[i].status.ToString().find("ceiling"),
              std::string::npos);
    EXPECT_GT(trace.attempts[i].model_ms, 0.0);
  }
}

TEST_F(ExecutorTest, TraceSummaryNamesEveryAttempt) {
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("tc.hu=internal@1").ok());
  ExecutionTrace trace;
  ASSERT_TRUE(ExecuteResilient(g_, spec_, ExecutionPolicy{},
                               {FallbackStage{false, TcAlgorithm::kHu}},
                               PreprocessOptions{}, &trace)
                  .ok());
  const std::string summary = trace.Summary();
  EXPECT_NE(summary.find("attempt 1: Hu/base"), std::string::npos);
  EXPECT_NE(summary.find("attempt 2: Hu/no-aorder -> OK"), std::string::npos);
}

TEST(ParseFallbackChainTest, ParsesNamesCaseInsensitively) {
  const StatusOr<std::vector<FallbackStage>> chain =
      ParseFallbackChain(" HU , polak ,Gunrock-bs, cpu ");
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->size(), 4u);
  EXPECT_EQ((*chain)[0].name(), "Hu");
  EXPECT_EQ((*chain)[1].name(), "Polak");
  EXPECT_EQ((*chain)[2].name(), "Gunrock-bs");
  EXPECT_EQ((*chain)[3].name(), "cpu");
  EXPECT_TRUE((*chain)[3].is_cpu);
}

TEST(ParseFallbackChainTest, UnknownStageListsChoices) {
  const StatusOr<std::vector<FallbackStage>> chain =
      ParseFallbackChain("hu,bogus");
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(chain.status().ToString().find("valid choices"),
            std::string::npos);
  EXPECT_NE(chain.status().ToString().find("cpu"), std::string::npos);
}

TEST(ParseFallbackChainTest, DuplicateStageIsRejected) {
  // Names normalize case-insensitively, so "hu,Hu" is the same backend twice
  // — a chain that would retry a failed stage against itself.
  const StatusOr<std::vector<FallbackStage>> gpu_dup =
      ParseFallbackChain("hu,Hu");
  ASSERT_FALSE(gpu_dup.ok());
  EXPECT_EQ(gpu_dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(gpu_dup.status().ToString().find("duplicate"), std::string::npos);

  const StatusOr<std::vector<FallbackStage>> cpu_dup =
      ParseFallbackChain("cpu,cpu");
  ASSERT_FALSE(cpu_dup.ok());
  EXPECT_EQ(cpu_dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cpu_dup.status().ToString().find("duplicate"), std::string::npos);

  // Distinct backends that share a fail-point site (both Gunrock variants)
  // are still different stages and must coexist.
  EXPECT_TRUE(ParseFallbackChain("Gunrock-bs,Gunrock-sm,cpu").ok());
}

TEST_F(ExecutorTest, ConcurrentFaultMatrixIsThreadSafe) {
  // The batch service runs many ExecuteResilient calls at once against one
  // process-wide fail-point registry; this pins the whole path (registry
  // evaluation, counters, preprocessing, fallback) as data-race free. Every
  // counter entry site is armed so all threads keep hitting the registry
  // while they fall back, and each thread must still land on the exact cpu
  // count. Run under TSan in CI.
  std::string schedule;
  for (TcAlgorithm algorithm : PaperAlgorithms()) {
    if (!schedule.empty()) schedule += ";";
    schedule += CounterSite(algorithm) + "=internal";
  }
  ASSERT_TRUE(FailPointRegistry::Instance().ArmFromString(schedule).ok());

  constexpr int kThreads = 8;
  std::atomic<int> correct{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  const std::vector<TcAlgorithm> algorithms = PaperAlgorithms();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const TcAlgorithm algorithm = algorithms[t % algorithms.size()];
      ExecutionTrace trace;
      const StatusOr<ExecutionResult> result =
          ExecuteResilient(g_, spec_, ExecutionPolicy{}, GpuThenCpu(algorithm),
                           PreprocessOptions{}, &trace);
      if (result.ok() && result->stage == "cpu" &&
          result->run.triangles == expected_ && trace.attempts.size() == 4u) {
        correct.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(correct.load(), kThreads);
}

TEST(ParseFallbackChainTest, EmptyChainIsRejected) {
  EXPECT_EQ(ParseFallbackChain("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFallbackChain(" , ,").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EstimateHostBytesTest, GrowsWithGraphSize) {
  const int64_t small = EstimateHostBytes(CompleteGraph(10));
  const int64_t large = EstimateHostBytes(CompleteGraph(100));
  EXPECT_GT(small, 0);
  EXPECT_GT(large, small);
}

// A request that fills its cache holds the new artifact beside its own
// copy, so it is charged more than a plain recompute; a hit, less.
TEST(EstimateHostBytesTest, RequestEstimateFollowsTheCache) {
  const Graph g = GenerateErdosRenyi(300, 1500, /*seed=*/1);
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  PreprocessOptions options;
  EXPECT_EQ(EstimateRequestHostBytes(g, spec, options), EstimateHostBytes(g));

  PrepCache cache(0);
  options.prep_cache = &cache;
  EXPECT_EQ(EstimateRequestHostBytes(g, spec, options),
            EstimateHostBytesFill(g));
  ASSERT_TRUE(TryPreprocess(g, spec, options, ExecContext()).ok());
  EXPECT_EQ(EstimateRequestHostBytes(g, spec, options),
            EstimateHostBytesCached(g));

  EXPECT_LT(EstimateHostBytesCached(g), EstimateHostBytes(g));
  EXPECT_LT(EstimateHostBytes(g), EstimateHostBytesFill(g));
}

}  // namespace
}  // namespace gputc
