// Tests for the concurrent batch service layer: the bounded work queue and
// its shed policies, the per-backend circuit breakers, memory admission
// control, manifest parsing, and the BatchService end to end — saturation,
// breaker routing, request deadlines, fault injection, and drain under
// load. The whole file runs under TSan/ASan in CI.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "service/admission.h"
#include "service/batch_service.h"
#include "service/circuit_breaker.h"
#include "service/manifest.h"
#include "service/work_queue.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/version.h"
#include "report_log.h"

namespace gputc {
namespace {

using State = CircuitBreaker::State;

// -- WorkQueue --------------------------------------------------------------

TEST(WorkQueueTest, PopsInFifoOrder) {
  WorkQueue<int> queue(4, ShedPolicy::kBlock);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.Push(i).status.ok());
  }
  EXPECT_EQ(queue.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const std::optional<int> item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
}

TEST(WorkQueueTest, RejectPolicyFailsFastWhenFull) {
  WorkQueue<int> queue(2, ShedPolicy::kReject);
  EXPECT_TRUE(queue.Push(1).status.ok());
  EXPECT_TRUE(queue.Push(2).status.ok());
  const auto result = queue.Push(3);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(result.shed.has_value());
  EXPECT_EQ(queue.size(), 2u);
}

TEST(WorkQueueTest, DropOldestEvictsTheHead) {
  WorkQueue<int> queue(2, ShedPolicy::kDropOldest);
  EXPECT_TRUE(queue.Push(1).status.ok());
  EXPECT_TRUE(queue.Push(2).status.ok());
  const auto result = queue.Push(3);
  EXPECT_TRUE(result.status.ok());
  ASSERT_TRUE(result.shed.has_value());
  EXPECT_EQ(*result.shed, 1) << "the oldest item must be the victim";
  EXPECT_EQ(*queue.Pop(), 2);
  EXPECT_EQ(*queue.Pop(), 3);
}

TEST(WorkQueueTest, BlockPolicyWaitsForAConsumer) {
  WorkQueue<int> queue(1, ShedPolicy::kBlock);
  EXPECT_TRUE(queue.Push(1).status.ok());
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2).status.ok());
    second_pushed.store(true);
  });
  // The producer must be parked on the full queue, not dropping the item.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(*queue.Pop(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(*queue.Pop(), 2);
}

TEST(WorkQueueTest, CloseUnblocksProducersAndDrainsConsumers) {
  WorkQueue<int> queue(1, ShedPolicy::kBlock);
  EXPECT_TRUE(queue.Push(1).status.ok());
  Status blocked_push = OkStatus();
  std::thread producer([&] { blocked_push = queue.Push(2).status; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  producer.join();
  EXPECT_EQ(blocked_push.code(), StatusCode::kFailedPrecondition);
  // Already-queued items still drain; then consumers get the exit signal.
  EXPECT_EQ(*queue.Pop(), 1);
  EXPECT_FALSE(queue.Pop().has_value());
  EXPECT_EQ(queue.Push(3).status.code(), StatusCode::kFailedPrecondition);
}

TEST(WorkQueueTest, FlushPendingReturnsEverythingUnstarted) {
  WorkQueue<int> queue(4, ShedPolicy::kBlock);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(queue.Push(i).status.ok());
  }
  queue.Close();
  const std::vector<int> flushed = queue.FlushPending();
  EXPECT_EQ(flushed, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(ShedPolicyTest, ParsesNamesAndRejectsUnknown) {
  EXPECT_EQ(*ParseShedPolicy("block"), ShedPolicy::kBlock);
  EXPECT_EQ(*ParseShedPolicy("reject"), ShedPolicy::kReject);
  EXPECT_EQ(*ParseShedPolicy("drop-oldest"), ShedPolicy::kDropOldest);
  const StatusOr<ShedPolicy> bad = ParseShedPolicy("bogus");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().ToString().find("drop-oldest"), std::string::npos);
  EXPECT_STREQ(ShedPolicyName(ShedPolicy::kDropOldest), "drop-oldest");
}

// -- CircuitBreaker ---------------------------------------------------------

/// Breaker driven by a hand-cranked clock so every transition is
/// deterministic.
struct FakeClockBreaker {
  explicit FakeClockBreaker(CircuitBreakerOptions options)
      : breaker(options, [this] { return now_ms; }) {}
  double now_ms = 0.0;
  CircuitBreaker breaker;
};

CircuitBreakerOptions TestBreakerOptions() {
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  options.open_cooldown_ms = 100.0;
  options.half_open_probes = 1;
  return options;
}

TEST(CircuitBreakerTest, ConsecutiveFailuresTripTheBreaker) {
  FakeClockBreaker fake(TestBreakerOptions());
  CircuitBreaker& b = fake.breaker;
  EXPECT_TRUE(b.Allow());
  b.RecordFailure();
  EXPECT_EQ(b.state(), State::kClosed) << "one failure is below threshold";
  EXPECT_TRUE(b.Allow());
  b.RecordFailure();
  EXPECT_EQ(b.state(), State::kOpen);
  EXPECT_FALSE(b.Allow()) << "open breaker refuses before the cooldown";
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  FakeClockBreaker fake(TestBreakerOptions());
  CircuitBreaker& b = fake.breaker;
  b.RecordFailure();
  b.RecordSuccess();
  b.RecordFailure();
  EXPECT_EQ(b.state(), State::kClosed)
      << "non-consecutive failures must not trip the breaker";
  EXPECT_EQ(b.consecutive_failures(), 1);
}

TEST(CircuitBreakerTest, CooldownAdmitsOneProbeThenCloses) {
  FakeClockBreaker fake(TestBreakerOptions());
  CircuitBreaker& b = fake.breaker;
  b.RecordFailure();
  b.RecordFailure();
  ASSERT_EQ(b.state(), State::kOpen);
  fake.now_ms = 99.0;
  EXPECT_FALSE(b.Allow()) << "cooldown has not elapsed yet";
  fake.now_ms = 101.0;
  EXPECT_TRUE(b.Allow()) << "expired cooldown admits a probe";
  EXPECT_EQ(b.state(), State::kHalfOpen);
  EXPECT_FALSE(b.Allow()) << "only half_open_probes grants at a time";
  b.RecordSuccess();
  EXPECT_EQ(b.state(), State::kClosed);
  EXPECT_TRUE(b.Allow());
}

TEST(CircuitBreakerTest, FailedProbeReopensAndRestartsCooldown) {
  FakeClockBreaker fake(TestBreakerOptions());
  CircuitBreaker& b = fake.breaker;
  b.RecordFailure();
  b.RecordFailure();
  fake.now_ms = 150.0;
  ASSERT_TRUE(b.Allow());
  b.RecordFailure();
  EXPECT_EQ(b.state(), State::kOpen);
  fake.now_ms = 200.0;
  EXPECT_FALSE(b.Allow()) << "cooldown restarted at the probe failure";
  fake.now_ms = 251.0;
  EXPECT_TRUE(b.Allow());
}

TEST(CircuitBreakerTest, CancelProbeReturnsTheGrant) {
  FakeClockBreaker fake(TestBreakerOptions());
  CircuitBreaker& b = fake.breaker;
  b.RecordFailure();
  b.RecordFailure();
  fake.now_ms = 150.0;
  ASSERT_TRUE(b.Allow());
  ASSERT_FALSE(b.Allow());
  // The granted attempt never ran (an earlier chain stage won); returning it
  // must let the next request probe instead of wedging half-open forever.
  b.CancelProbe();
  EXPECT_TRUE(b.Allow());
  EXPECT_EQ(b.state(), State::kHalfOpen);
}

TEST(BreakerBoardTest, HandsOutOneStableBreakerPerBackend) {
  BreakerBoard board(TestBreakerOptions());
  CircuitBreaker& hu = board.ForBackend("Hu");
  board.ForBackend("cpu");
  hu.RecordFailure();
  hu.RecordFailure();
  EXPECT_EQ(board.ForBackend("Hu").state(), State::kOpen)
      << "same name must resolve to the same breaker";
  EXPECT_EQ(board.ForBackend("cpu").state(), State::kClosed);
  EXPECT_EQ(board.BackendNames(), (std::vector<std::string>{"Hu", "cpu"}));
}

// -- AdmissionController ----------------------------------------------------

TEST(AdmissionTest, AdmitsWithinBudgetAndTracksUsage) {
  AdmissionController admission(100);
  const CancelToken token;
  EXPECT_TRUE(admission.Admit(60, token).ok());
  EXPECT_EQ(admission.in_use_bytes(), 60);
  EXPECT_EQ(admission.in_flight(), 1);
  admission.Release(60);
  EXPECT_EQ(admission.in_use_bytes(), 0);
  EXPECT_EQ(admission.in_flight(), 0);
}

TEST(AdmissionTest, OversizedRequestFailsFast) {
  AdmissionController admission(100);
  const Status status = admission.Admit(101, CancelToken());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.ToString().find("never be admitted"), std::string::npos);
  EXPECT_EQ(admission.in_flight(), 0);
}

TEST(AdmissionTest, WaitsUntilAReservationIsReleased) {
  AdmissionController admission(100);
  ASSERT_TRUE(admission.Admit(80, CancelToken()).ok());
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    EXPECT_TRUE(admission.Admit(50, CancelToken()).ok());
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(admitted.load()) << "50 over an 80/100 budget must wait";
  admission.Release(80);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(admission.in_use_bytes(), 50);
}

TEST(AdmissionTest, AbortFailsWaitersAndFutureAdmits) {
  AdmissionController admission(100);
  ASSERT_TRUE(admission.Admit(80, CancelToken()).ok());
  Status waiter_status = OkStatus();
  std::thread waiter(
      [&] { waiter_status = admission.Admit(50, CancelToken()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  admission.Abort();
  waiter.join();
  EXPECT_EQ(waiter_status.code(), StatusCode::kCancelled);
  EXPECT_EQ(admission.Admit(1, CancelToken()).code(), StatusCode::kCancelled);
}

TEST(AdmissionTest, CancelTokenAbandonsTheWait) {
  AdmissionController admission(100);
  ASSERT_TRUE(admission.Admit(80, CancelToken()).ok());
  CancelToken cancel;
  Status waiter_status = OkStatus();
  std::thread waiter([&] { waiter_status = admission.Admit(50, cancel); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cancel.Cancel("request deadline");
  waiter.join();
  EXPECT_EQ(waiter_status.code(), StatusCode::kCancelled);
  EXPECT_NE(waiter_status.ToString().find("request deadline"),
            std::string::npos);
}

TEST(AdmissionTest, DeadlineEndsTheWaitWithDeadlineExceeded) {
  AdmissionController admission(100);
  ASSERT_TRUE(admission.Admit(80, CancelToken()).ok());
  const Status status =
      admission.Admit(50, CancelToken(), Deadline::AfterMillis(20.0));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(admission.in_use_bytes(), 80);
  EXPECT_EQ(admission.in_flight(), 1);
}

TEST(AdmissionTest, RequestThatFitsIsAdmittedWhateverItsDeadline) {
  AdmissionController admission(100);
  EXPECT_TRUE(
      admission.Admit(60, CancelToken(), Deadline::AfterMillis(0.0)).ok());
  EXPECT_EQ(admission.in_use_bytes(), 60);
}

TEST(AdmissionTest, ZeroBudgetDisablesTheLimit) {
  AdmissionController admission(0);
  EXPECT_TRUE(admission.Admit(1'000'000'000, CancelToken()).ok());
  EXPECT_EQ(admission.in_flight(), 1);
  admission.Release(1'000'000'000);
}

// -- Manifest ---------------------------------------------------------------

TEST(ManifestTest, ParsesEverySourceKind) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "dataset:email-Eucore\n"
      "% another comment\n"
      "file:graphs/g.txt\n"
      "graphs/g2.bin\n"
      "wiki-Vote\n"
      "gen:rmat:scale=9,edge-factor=8,seed=3\n"
      "gen:powerlaw:nodes=400,gamma=2.1,min-degree=2,max-degree=60,seed=7\n"
      "gen:er:nodes=1000,edges=5000,seed=1\n"
      "gen:ws:nodes=1000,k=4,beta=0.05,seed=1\n");
  const StatusOr<std::vector<BatchRequest>> requests = ParseManifest(in);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->size(), 8u);
  EXPECT_EQ((*requests)[0].kind, BatchRequest::Kind::kDataset);
  EXPECT_EQ((*requests)[0].target, "email-Eucore");
  EXPECT_EQ((*requests)[0].id, "3:dataset:email-Eucore");
  EXPECT_EQ((*requests)[1].kind, BatchRequest::Kind::kFile);
  EXPECT_EQ((*requests)[1].target, "graphs/g.txt");
  EXPECT_EQ((*requests)[2].kind, BatchRequest::Kind::kFile)
      << "a bare token with '/' or '.' is a file path";
  EXPECT_EQ((*requests)[3].kind, BatchRequest::Kind::kDataset)
      << "a bare name is a dataset";
  EXPECT_EQ((*requests)[4].kind, BatchRequest::Kind::kGenerate);
  EXPECT_EQ((*requests)[4].target, "rmat");
  EXPECT_EQ((*requests)[4].params.at("scale"), "9");
  EXPECT_EQ((*requests)[4].params.at("seed"), "3");
  EXPECT_EQ((*requests)[5].params.at("gamma"), "2.1");
  EXPECT_EQ((*requests)[6].target, "er");
  EXPECT_EQ((*requests)[7].params.at("beta"), "0.05");
}

TEST(ManifestTest, ParsesPerRequestOverrides) {
  std::istringstream in("dataset:gowalla timeout-ms=250 fallback=Polak,cpu\n");
  const StatusOr<std::vector<BatchRequest>> requests = ParseManifest(in);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->size(), 1u);
  EXPECT_DOUBLE_EQ((*requests)[0].timeout_ms, 250.0);
  EXPECT_EQ((*requests)[0].fallback, "Polak,cpu");
}

TEST(ManifestTest, ParsesFailpointsOverride) {
  std::istringstream in(
      "gen:er:nodes=100,edges=300 failpoints=tc.block=crash@1\n");
  const StatusOr<std::vector<BatchRequest>> requests = ParseManifest(in);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->size(), 1u);
  EXPECT_EQ((*requests)[0].failpoints, "tc.block=crash@1");
}

TEST(ManifestTest, RejectsMalformedLinesNamingTheLineNumber) {
  const auto expect_bad = [](const std::string& text,
                             const std::string& needle) {
    std::istringstream in(text);
    const StatusOr<std::vector<BatchRequest>> requests = ParseManifest(in);
    ASSERT_FALSE(requests.ok()) << text;
    EXPECT_EQ(requests.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(requests.status().ToString().find(needle), std::string::npos)
        << requests.status().ToString();
  };
  expect_bad("gen:mystery:scale=4\n", "unknown generator family");
  expect_bad("gen:rmat:scale\n", "expected key=value");
  expect_bad("dataset:gowalla retries=3\n", "unknown override key");
  expect_bad("dataset:gowalla timeout-ms=fast\n", "not a number");
  expect_bad("dataset:gowalla timeout-ms=-5\n", "must be >= 0");
  expect_bad("dataset:gowalla failpoints=nonsense\n", "schedule");
  expect_bad("ok\ngen:mystery:x=1\n", "manifest line 2");
  // Generator parameters are strict too: each key must belong to the
  // family and hold a whole value of its type.
  expect_bad("gen:er:nodes=1e3,edges=3000,seed=1\n", "nodes=1e3");
  expect_bad("gen:er:nodes=300,edges=1500,sed=7\n",
             "unknown parameter 'sed'; valid er keys: nodes edges seed");
  expect_bad("gen:rmat:scale=9x,edge-factor=8\n", "not an integer");
  expect_bad("gen:ws:nodes=100,k=4,beta=0.1x\n", "not a number");
  expect_bad("ok\ngen:powerlaw:nodes=400,edges=9\n",
             "manifest line 2: unknown parameter 'edges'; valid powerlaw "
             "keys: nodes gamma min-degree max-degree seed");
}

TEST(ManifestTest, MaterializesGeneratedGraphs) {
  BatchRequest request;
  request.kind = BatchRequest::Kind::kGenerate;
  request.target = "er";
  request.params = {{"nodes", "200"}, {"edges", "800"}, {"seed", "5"}};
  const StatusOr<Graph> graph = MaterializeRequest(request);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_vertices(), 200);
}

TEST(ManifestTest, LoadManifestReportsMissingFile) {
  const StatusOr<std::vector<BatchRequest>> requests =
      LoadManifest("/nonexistent/manifest.txt");
  ASSERT_FALSE(requests.ok());
  EXPECT_EQ(requests.status().code(), StatusCode::kNotFound);
}

// -- BatchService -----------------------------------------------------------

/// Every test wipes the fail-point registry on entry and exit so an ambient
/// GPUTC_FAILPOINTS (or a sibling test) cannot perturb its schedule.
class BatchServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Instance().Reset(); }
  void TearDown() override { FailPointRegistry::Instance().Reset(); }

  /// A small generated request; distinct seeds give distinct graphs.
  static BatchRequest GenRequest(int index) {
    BatchRequest request;
    request.id = std::to_string(index) + ":gen:er";
    request.source = "gen:er:seed=" + std::to_string(index);
    request.kind = BatchRequest::Kind::kGenerate;
    request.target = "er";
    request.params = {{"nodes", "300"},
                      {"edges", "1500"},
                      {"seed", std::to_string(index)}};
    return request;
  }

  /// A heavier request so cancellation/drain tests have time to interrupt.
  static BatchRequest BigRequest(int index) {
    BatchRequest request = GenRequest(index);
    request.source = "gen:rmat:seed=" + std::to_string(index);
    request.target = "rmat";
    request.params = {{"scale", "12"},
                      {"edge-factor", "16"},
                      {"seed", std::to_string(index)}};
    return request;
  }

  static std::set<std::string> ReportIds(
      const std::vector<RequestReport>& reports) {
    std::set<std::string> ids;
    for (const RequestReport& report : reports) {
      EXPECT_TRUE(ids.insert(report.id).second)
          << "request '" << report.id << "' journaled twice";
    }
    return ids;
  }
};

TEST_F(BatchServiceTest, CleanBatchCountsEveryRequestOk) {
  BatchServiceOptions options;
  options.jobs = 4;
  options.queue_depth = 8;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) service.Submit(GenRequest(i));
  const BatchSummary summary = service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(summary.CountOutcome(RequestOutcome::kOk), kRequests);
  EXPECT_TRUE(summary.AllSucceeded());
  EXPECT_FALSE(summary.drained);
  EXPECT_EQ(ReportIds(reports).size(), static_cast<size_t>(kRequests));
  for (const RequestReport& report : reports) {
    EXPECT_GT(report.triangles, 0) << report.id;
    EXPECT_EQ(report.stage, "Hu") << report.id;
    EXPECT_EQ(report.attempts, 1) << report.id;
    // The journal line must round-trip the essentials.
    const std::string json = report.ToJson();
    EXPECT_NE(json.find("\"outcome\":\"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"id\":\"" + report.id + "\""), std::string::npos);
  }
}

TEST_F(BatchServiceTest, PerRequestFailpointsOverrideInjectsInProcess) {
  BatchServiceOptions options;
  options.jobs = 1;  // Serial: completion order == submit order.
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  BatchRequest poisoned = GenRequest(0);
  // Three count-limited fires: one per Hu variant (base, no-aorder,
  // no-adirection), exhausting the stage; the cpu stage then rescues the
  // request. Count-limited so the schedule cannot leak into request 1.
  poisoned.failpoints = "tc.block=internal@3";
  service.Submit(poisoned);
  service.Submit(GenRequest(1));
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].outcome, RequestOutcome::kDegraded);
  EXPECT_EQ(reports[0].stage, "cpu");
  EXPECT_GT(reports[0].triangles, 0);
  EXPECT_EQ(reports[1].outcome, RequestOutcome::kOk);
  EXPECT_EQ(reports[1].stage, "Hu");
}

TEST_F(BatchServiceTest, MalformedFailpointsOverrideFailsOnlyThatRequest) {
  BatchServiceOptions options;
  options.jobs = 1;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  BatchRequest bad = GenRequest(0);
  bad.failpoints = "not-a-schedule";
  service.Submit(bad);
  service.Submit(GenRequest(1));
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].outcome, RequestOutcome::kFailed);
  EXPECT_NE(reports[0].status.message().find("failpoints override"),
            std::string::npos)
      << reports[0].status.ToString();
  EXPECT_EQ(reports[1].outcome, RequestOutcome::kOk);
}

TEST_F(BatchServiceTest, StreamingHookSeesEveryReportInJournalOrder) {
  BatchServiceOptions options;
  options.jobs = 2;
  BatchService service(options);
  std::mutex mu;
  std::vector<std::string> streamed;
  service.set_on_report([&](const RequestReport& report) {
    std::lock_guard<std::mutex> lock(mu);
    streamed.push_back(report.id);
  });
  service.Start();
  for (int i = 0; i < 5; ++i) service.Submit(GenRequest(i));
  const BatchSummary summary = service.Finish();
  ASSERT_EQ(static_cast<int64_t>(streamed.size()), summary.Total());
  const std::set<std::string> ids(streamed.begin(), streamed.end());
  EXPECT_EQ(ids.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ids.count(GenRequest(i).id), 1u);
}

TEST_F(BatchServiceTest, RejectPolicyShedsButJournalsEverySubmission) {
  // One worker held down by a blocking observer on its entry fail point:
  // the queue (depth 2) must fill deterministically, and every extra Submit
  // must come back as an explicit rejected journal entry — never vanish.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FailPointRegistry::Instance().SetObserver("service.worker", [&](int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  BatchServiceOptions options;
  options.jobs = 1;
  options.queue_depth = 2;
  options.shed_policy = ShedPolicy::kReject;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();

  service.Submit(GenRequest(0));  // Picked up; parked in the observer.
  while (FailPointRegistry::Instance().hits("service.worker") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Submit(GenRequest(1));  // Queued.
  service.Submit(GenRequest(2));  // Queued; queue is now full.
  service.Submit(GenRequest(3));  // Shed.
  service.Submit(GenRequest(4));  // Shed.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  const BatchSummary summary = service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_EQ(ReportIds(reports).size(), 5u);
  EXPECT_EQ(summary.CountOutcome(RequestOutcome::kOk), 3);
  EXPECT_EQ(summary.CountOutcome(RequestOutcome::kRejected), 2);
  for (const RequestReport& report : reports) {
    if (report.outcome == RequestOutcome::kRejected) {
      EXPECT_EQ(report.status.code(), StatusCode::kResourceExhausted);
      EXPECT_NE(report.status.ToString().find("reject"), std::string::npos);
    }
  }
}

TEST_F(BatchServiceTest, DropOldestEvictsQueuedWorkNotNewWork) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FailPointRegistry::Instance().SetObserver("service.worker", [&](int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  BatchServiceOptions options;
  options.jobs = 1;
  options.queue_depth = 1;
  options.shed_policy = ShedPolicy::kDropOldest;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();

  service.Submit(GenRequest(0));  // Parked in the worker.
  while (FailPointRegistry::Instance().hits("service.worker") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Submit(GenRequest(1));  // Queued.
  service.Submit(GenRequest(2));  // Evicts request 1.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 3u);
  for (const RequestReport& report : reports) {
    if (report.id == "1:gen:er") {
      EXPECT_EQ(report.outcome, RequestOutcome::kRejected);
      EXPECT_NE(report.status.ToString().find("drop-oldest"),
                std::string::npos);
    } else {
      EXPECT_EQ(report.outcome, RequestOutcome::kOk) << report.id;
    }
  }
}

TEST_F(BatchServiceTest, OpenBreakerRoutesLaterRequestsPastTheBackend) {
  // Hu fails every attempt; after failure_threshold requests its breaker
  // opens and later requests skip straight to the cpu stage without paying
  // Hu's three degraded attempts. The fail-point hit counter proves Hu
  // stopped being tried.
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("tc.hu=internal").ok());
  BatchServiceOptions options;
  options.jobs = 1;  // Serialize so the breaker math is deterministic.
  options.breaker.failure_threshold = 2;
  options.breaker.open_cooldown_ms = 1e9;  // Never half-opens in this test.
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) service.Submit(GenRequest(i));
  const BatchSummary summary = service.Finish();
  const std::vector<RequestReport> reports = journal.reports();

  ASSERT_EQ(reports.size(), static_cast<size_t>(kRequests));
  // Every request still gets an answer via the cpu fallback.
  EXPECT_EQ(summary.CountOutcome(RequestOutcome::kDegraded), kRequests);
  // Requests 0 and 1 each burn 3 Hu variants; the breaker then opens and no
  // later request touches Hu at all.
  EXPECT_EQ(FailPointRegistry::Instance().hits("tc.hu"), 6);
  EXPECT_EQ(service.breakers().ForBackend("Hu").state(), State::kOpen);
  EXPECT_EQ(service.breakers().ForBackend("cpu").state(), State::kClosed);
  for (int i = 2; i < kRequests; ++i) {
    EXPECT_EQ(reports[i].attempts, 1)
        << "request " << i << " should have skipped the benched backend";
  }
}

TEST_F(BatchServiceTest, AllBreakersOpenRejectsInsteadOfExecuting) {
  BatchServiceOptions options;
  options.jobs = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.open_cooldown_ms = 1e9;
  BatchService service(options);
  const ReportLog journal(service);
  // Trip both backends before any request runs.
  service.breakers().ForBackend("Hu").RecordFailure();
  service.breakers().ForBackend("cpu").RecordFailure();
  service.Start();
  service.Submit(GenRequest(0));
  const BatchSummary summary = service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].outcome, RequestOutcome::kRejected);
  EXPECT_NE(reports[0].status.ToString().find("circuit breaker"),
            std::string::npos);
  EXPECT_TRUE(summary.NoneSucceeded());
}

TEST_F(BatchServiceTest, RequestDeadlineFailsTheRequest) {
  BatchServiceOptions options;
  options.jobs = 2;
  options.request_timeout_ms = 1.0;  // Expires before a scale-12 run ends.
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  for (int i = 0; i < 4; ++i) service.Submit(BigRequest(i));
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 4u);
  for (const RequestReport& report : reports) {
    EXPECT_EQ(report.outcome, RequestOutcome::kFailed) << report.id;
    EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded)
        << report.id;
    EXPECT_NE(report.status.ToString().find("deadline expired"),
              std::string::npos)
        << report.status.ToString();
  }
  // Deadline kills are the caller's clock, not backend illness: no breaker
  // may have tripped.
  EXPECT_EQ(service.breakers().ForBackend("Hu").state(), State::kClosed);
}

TEST_F(BatchServiceTest, PerRequestTimeoutOverridesTheBatchDefault) {
  BatchServiceOptions options;
  options.jobs = 1;
  options.request_timeout_ms = 1.0;  // Would cancel BigRequest...
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  BatchRequest generous = BigRequest(1);
  generous.timeout_ms = 60'000.0;  // ...but the manifest override wins.
  service.Submit(generous);
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].outcome, RequestOutcome::kOk)
      << reports[0].status.ToString();
}

TEST_F(BatchServiceTest, MemoryAdmissionSerializesOversubscribedRequests) {
  // Budget fits one small graph at a time; both requests must still finish
  // (admission is backpressure, not shedding).
  const StatusOr<Graph> probe = MaterializeRequest(GenRequest(0));
  ASSERT_TRUE(probe.ok());
  const int64_t one_request = EstimateHostBytes(*probe);
  BatchServiceOptions options;
  options.jobs = 2;
  options.mem_budget_bytes = one_request + one_request / 2;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  service.Submit(GenRequest(0));
  service.Submit(GenRequest(1));
  const BatchSummary summary = service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(summary.AllSucceeded())
      << reports[0].status.ToString() << " / "
      << reports[1].status.ToString();
}

// A request whose own deadline passes while it waits for memory fails: that
// is its clock running out, not back pressure, so it is journaled failed and
// not counted as a memory shed.
TEST_F(BatchServiceTest, DeadlineWhileWaitingForMemoryFailsTheRequest) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FailPointRegistry::Instance().SetObserver("tc.block", [&](int64_t hit) {
    if (hit != 1) return;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  const StatusOr<Graph> probe = MaterializeRequest(GenRequest(0));
  ASSERT_TRUE(probe.ok());
  const int64_t one_request = EstimateHostBytes(*probe);
  const Counter& memory_sheds = MetricsRegistry::Global().GetCounter(
      "gputc_overload_rejections_total",
      "Requests shed by an overload gate, by reason", {{"reason", "memory"}});
  const int64_t sheds_before = memory_sheds.value();

  BatchServiceOptions options;
  options.jobs = 2;
  options.mem_budget_bytes = one_request + one_request / 2;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  service.Submit(GenRequest(0));  // Admitted, then parked on its first block.
  while (FailPointRegistry::Instance().hits("tc.block") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  BatchRequest late = GenRequest(1);
  late.timeout_ms = 20.0;
  service.Submit(late);  // Waits for memory until its deadline passes.
  while (journal.reports().empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].id, late.id);
  EXPECT_EQ(reports[0].outcome, RequestOutcome::kFailed);
  EXPECT_EQ(reports[0].status.code(), StatusCode::kDeadlineExceeded)
      << reports[0].status.ToString();
  EXPECT_EQ(reports[1].outcome, RequestOutcome::kOk)
      << reports[1].status.ToString();
  EXPECT_EQ(memory_sheds.value(), sheds_before);
}

TEST_F(BatchServiceTest, ImpossibleMemoryDemandIsRejectedNotHung) {
  BatchServiceOptions options;
  options.jobs = 1;
  options.mem_budget_bytes = 16;  // Smaller than any real graph.
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  service.Submit(GenRequest(0));
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].outcome, RequestOutcome::kRejected);
  EXPECT_EQ(reports[0].status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_NE(reports[0].status.ToString().find("admission"),
            std::string::npos);
}

// Admission regression for the preprocessing cache: a cache-hit request
// rebuilds the directed graph from the artifact instead of holding a second
// working copy, so its honest estimate is EstimateHostBytesCached — below
// the cold EstimateHostBytes. A budget between the two must reject the cold
// run but admit the warmed one; charging warm requests the cold estimate
// (the old double-count) would reject both.
TEST_F(BatchServiceTest, WarmCacheAdmitsWhatColdAdmissionRejects) {
  const StatusOr<Graph> probe = MaterializeRequest(GenRequest(0));
  ASSERT_TRUE(probe.ok());
  const int64_t cold = EstimateHostBytes(*probe);
  const int64_t cached = EstimateHostBytesCached(*probe);
  ASSERT_LT(cached, cold);

  BatchServiceOptions options;
  options.jobs = 1;
  options.mem_budget_bytes = (cached + cold) / 2;

  {  // Cold: the estimate exceeds the whole budget — rejected, not hung.
    BatchService service(options);
    const ReportLog journal(service);
    service.Start();
    service.Submit(GenRequest(0));
    service.Finish();
    const std::vector<RequestReport> reports = journal.reports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].outcome, RequestOutcome::kRejected)
        << reports[0].status.ToString();
  }

  // Warm the service's own cache under exactly its preprocessing config
  // (the fingerprint excludes the cache pointer itself).
  options.prep_cache_mb = 16;
  BatchService service(options);
  ASSERT_NE(service.prep_cache(), nullptr);
  PreprocessOptions warmup;
  warmup.prep_cache = service.prep_cache();
  ASSERT_TRUE(TryPreprocess(*probe, DeviceSpec::TitanXpLike(), warmup,
                            ExecContext())
                  .ok());

  const ReportLog journal(service);
  service.Start();
  service.Submit(GenRequest(0));
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].outcome, RequestOutcome::kOk)
      << reports[0].status.ToString();
  EXPECT_GE(service.prep_cache()->stats().memory_hits, 1);
}

TEST_F(BatchServiceTest, ServiceFailPointsShedOrFailButNeverDrop) {
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .ArmFromString(
                      "service.enqueue=resource_exhausted@1;"
                      "service.admit=resource_exhausted@1;"
                      "service.worker=internal@1")
                  .ok());
  BatchServiceOptions options;
  options.jobs = 2;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) service.Submit(GenRequest(i));
  const BatchSummary summary = service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(ReportIds(reports).size(), static_cast<size_t>(kRequests));
  // One enqueue shed, one admission shed, one worker fault; the rest count.
  EXPECT_EQ(summary.CountOutcome(RequestOutcome::kRejected), 2);
  EXPECT_EQ(summary.CountOutcome(RequestOutcome::kFailed), 1);
  EXPECT_EQ(summary.CountOutcome(RequestOutcome::kOk), kRequests - 3);
}

TEST_F(BatchServiceTest, InvalidFallbackOverrideFailsOnlyThatRequest) {
  BatchServiceOptions options;
  options.jobs = 1;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  BatchRequest bad = GenRequest(0);
  bad.fallback = "hu,hu";  // Duplicate stages are rejected at parse time.
  service.Submit(bad);
  service.Submit(GenRequest(1));
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].outcome, RequestOutcome::kFailed);
  EXPECT_EQ(reports[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reports[0].status.ToString().find("duplicate"),
            std::string::npos);
  EXPECT_EQ(reports[1].outcome, RequestOutcome::kOk);
}

TEST_F(BatchServiceTest, DrainUnderLoadAccountsForEveryRequest) {
  BatchServiceOptions options;
  options.jobs = 2;
  options.queue_depth = 4;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  constexpr int kRequests = 24;
  std::thread producer([&] {
    for (int i = 0; i < kRequests; ++i) service.Submit(BigRequest(i));
  });
  // Let a few requests start, then pull the plug mid-flood.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  service.RequestDrain("test drain", Deadline::AfterMillis(50.0));
  producer.join();
  const BatchSummary summary = service.Finish();
  const std::vector<RequestReport> reports = journal.reports();

  EXPECT_TRUE(summary.drained);
  EXPECT_EQ(summary.drain_reason, "test drain");
  // The accounting invariant: every submitted request journals exactly once,
  // whatever mix of completed/cancelled/flushed/refused the drain produced.
  ASSERT_EQ(reports.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(ReportIds(reports).size(), static_cast<size_t>(kRequests));
  for (const RequestReport& report : reports) {
    if (report.outcome == RequestOutcome::kRejected ||
        report.outcome == RequestOutcome::kFailed) {
      EXPECT_FALSE(report.status.ok()) << report.id;
    }
  }
}

// A running request keeps the drain's grace period, then stops at its next
// block: it fails CANCELLED naming the drain, and the stop is not charged
// to the backend's breaker.
TEST_F(BatchServiceTest, DrainGraceCancelsTheRunningRequest) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FailPointRegistry::Instance().SetObserver("tc.block", [&](int64_t hit) {
    if (hit != 1) return;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  BatchServiceOptions options;
  options.jobs = 1;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  service.Submit(BigRequest(0));  // Parked on its first priced block.
  while (FailPointRegistry::Instance().hits("tc.block") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.RequestDrain("test drain", Deadline::AfterMillis(1.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].outcome, RequestOutcome::kFailed);
  EXPECT_EQ(reports[0].status.code(), StatusCode::kCancelled);
  EXPECT_NE(reports[0].status.message().find(
                "drain grace period expired (test drain)"),
            std::string::npos)
      << reports[0].status.ToString();
  EXPECT_EQ(service.breakers().ForBackend("Hu").state(), State::kClosed);
}

// The service journals into the process-global metrics registry while the
// CLI (or an operator thread) may be exporting it: snapshotting must stay
// safe and coherent against a batch that is actively executing and then
// draining. TSan covers the data-race half; the bucket-sum assertion covers
// torn histogram reads.
TEST_F(BatchServiceTest, MetricsSnapshotsStaySafeWhileBatchDrains) {
  BatchServiceOptions options;
  options.jobs = 3;
  options.queue_depth = 8;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();

  // Seed one series so the exporter has something to render even before the
  // first request journals (keeps the non-empty assertion meaningful when
  // this test runs alone under --gtest_filter).
  MetricsRegistry::Global()
      .GetCounter("gputc_test_probe_total", "Test-only probe series")
      .Increment();

  std::atomic<bool> stop_snapshots{false};
  std::thread exporter([&stop_snapshots] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    while (!stop_snapshots.load(std::memory_order_acquire)) {
      const std::string text = registry.PrometheusText();
      EXPECT_FALSE(text.empty());
      for (const MetricSample& sample : registry.Snapshot()) {
        if (sample.type != 'h') continue;
        int64_t bucket_sum = 0;
        for (int64_t c : sample.histogram.counts) bucket_sum += c;
        EXPECT_EQ(sample.histogram.count, bucket_sum) << sample.name;
      }
    }
  });

  constexpr int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) service.Submit(GenRequest(i));
  service.RequestDrain("metrics snapshot test", Deadline::AfterMillis(50.0));
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  stop_snapshots.store(true, std::memory_order_release);
  exporter.join();

  EXPECT_EQ(reports.size(), static_cast<size_t>(kRequests));
}

// Soak: once a report is journaled the service keeps nothing of it, so live
// heap stays flat however long the service runs. glibc's mallinfo2 counts
// the bytes malloc has handed out; the sanitizers replace malloc, so the
// test needs a plain build.
TEST_F(BatchServiceTest, LiveHeapStaysFlatOverManyRequests) {
  if (std::string_view(SanitizerConfig()) != "none") {
    GTEST_SKIP() << "sanitizer builds replace malloc";
  }
  BatchServiceOptions options;
  options.jobs = 4;
  options.queue_depth = 64;
  BatchService service(options);
  std::mutex mu;
  std::condition_variable cv;
  int64_t journaled = 0;
  service.set_on_report([&](const RequestReport&) {
    std::lock_guard<std::mutex> lock(mu);
    ++journaled;
    cv.notify_all();
  });
  service.Start();

  // Ids as long as a harness's "<seq>:<path>" ids, on a 4-vertex graph.
  const std::string path =
      "bench-work/service-mix-s1/inputs/rmat-s12-ef8-seed17.bin";
  constexpr int kRequests = 100'000;
  size_t heap_at_half = 0;
  for (int i = 0; i < kRequests; ++i) {
    if (i == kRequests / 2) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return journaled == i; });
      heap_at_half = mallinfo2().uordblks;
    }
    BatchRequest request;
    request.id = std::to_string(i) + ":" + path;
    request.source = path;
    request.kind = BatchRequest::Kind::kGenerate;
    request.target = "er";
    request.params = {{"nodes", "4"}, {"edges", "5"}, {"seed", "1"}};
    service.Submit(std::move(request));
  }
  const BatchSummary summary = service.Finish();
  const size_t heap_at_end = mallinfo2().uordblks;
  EXPECT_EQ(summary.CountOutcome(RequestOutcome::kOk), kRequests);
  EXPECT_LE(heap_at_end, heap_at_half + (size_t{1} << 20))
      << "live heap grew " << (heap_at_end - heap_at_half)
      << " bytes over the second " << kRequests / 2 << " requests";
}

TEST_F(BatchServiceTest, DrainBeforeStartRejectsEverything) {
  BatchServiceOptions options;
  options.jobs = 2;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  service.RequestDrain("pre-drain", Deadline::AfterMillis(1000.0));
  for (int i = 0; i < 3; ++i) service.Submit(GenRequest(i));
  const BatchSummary summary = service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(summary.CountOutcome(RequestOutcome::kRejected), 3);
  for (const RequestReport& report : reports) {
    EXPECT_EQ(report.status.code(), StatusCode::kCancelled) << report.id;
  }
}

}  // namespace
}  // namespace gputc
