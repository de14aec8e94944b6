// Worker-pool supervision tests: the wire protocol (framing, codecs, torn
// frames), the Supervisor driving real `gputc worker` subprocesses —
// happy-path dispatch, crash containment, hang detection, crash-loop breaker
// trip and half-open recovery, and the zero-zombie guarantee — and the batch
// service reporting the same under `isolate` as in-process.

#include "service/supervisor.h"

#include <errno.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "report_log.h"
#include "service/batch_service.h"
#include "service/circuit_breaker.h"
#include "service/manifest.h"
#include "service/worker_process.h"
#include "tc/cpu_counters.h"
#include "util/deadline.h"
#include "util/durable_file.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace gputc {
namespace {

// Workers inherit this process's environment (that is the documented way to
// give a whole pool an ambient schedule), so a CI-level GPUTC_FAILPOINTS
// would leak into every worker these tests spawn. Strip it up front — the
// same hygiene the crash harness applies to its children — so each test's
// own per-request schedule is the only fault source.
class StripAmbientFailpoints : public ::testing::Environment {
 public:
  void SetUp() override { ::unsetenv("GPUTC_FAILPOINTS"); }
};
::testing::Environment* const kStripAmbient =
    ::testing::AddGlobalTestEnvironment(new StripAmbientFailpoints);

std::string Binary() { return GPUTC_CLI_PATH; }

/// A small deterministic generated graph: fast to count, no files needed.
BatchRequest GenBatchRequest(const std::string& id) {
  BatchRequest request;
  request.id = id;
  request.source = "gen:er:nodes=200,edges=800,seed=5";
  request.kind = BatchRequest::Kind::kGenerate;
  request.target = "er";
  request.params = {{"nodes", "200"}, {"edges", "800"}, {"seed", "5"}};
  return request;
}

/// GenBatchRequest on the wire, with the batch default chain resolved.
WorkerRequest GenRequest(const std::string& id) {
  WorkerRequest wire;
  wire.request = GenBatchRequest(id);
  wire.request.fallback = "Hu,cpu";
  return wire;
}

/// An R-MAT request whose generation alone outlasts 150 ms while its worker
/// keeps beating: only a kill stops it early.
WorkerRequest SlowRequest(const std::string& id) {
  WorkerRequest wire;
  wire.request.id = id;
  wire.request.source = "gen:rmat:scale=17,edge-factor=16,seed=1";
  wire.request.kind = BatchRequest::Kind::kGenerate;
  wire.request.target = "rmat";
  wire.request.params = {{"scale", "17"}, {"edge-factor", "16"}, {"seed", "1"}};
  wire.request.fallback = "Hu";
  return wire;
}

SupervisorOptions FastOptions() {
  SupervisorOptions options;
  options.binary = Binary();
  options.workers = 1;
  options.backoff_base_ms = 5.0;
  options.backoff_cap_ms = 50.0;
  return options;
}

int64_t RestartCount(const std::string& reason) {
  return MetricsRegistry::Global()
      .GetCounter("gputc_worker_restarts_total",
                  "Worker subprocess deaths requiring a restart, by cause",
                  {{"reason", reason}})
      .value();
}

double ActiveGaugeValue() {
  return MetricsRegistry::Global()
      .GetGauge("gputc_worker_active",
                "Live (spawned, un-reaped) worker subprocesses")
      .value();
}

/// True when this process has no un-reaped children at all — the post-test
/// zombie sweep. Uses WNOHANG so a live (non-zombie) child would also show
/// up as a failure, which is what we want after Shutdown.
bool NoChildProcesses() {
  const int pid = ::waitpid(-1, nullptr, WNOHANG);
  return pid < 0 && errno == ECHILD;
}

// -- wire codec ------------------------------------------------------------

TEST(WorkerWireTest, RequestRoundTripsThroughCodec) {
  WorkerRequest wire;
  BatchRequest& request = wire.request;
  request.id = "3:gen:er";
  request.source = "gen:er:nodes=10,edges=20,seed=1";
  request.kind = BatchRequest::Kind::kGenerate;
  request.target = "er";
  request.params = {{"nodes", "10"}, {"note", "line1\nline2\\tail=x"}};
  request.timeout_ms = 123.5;
  request.fallback = "Hu,cpu";
  request.failpoints = "tc.block=crash@1;io.load=data_loss%0.5$7";
  wire.prep_cache_dir = "/tmp/cache";
  wire.prep_cache_mb = 64;

  const StatusOr<WorkerRequest> decoded =
      DecodeWorkerRequest(EncodeWorkerRequest(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request.id, request.id);
  EXPECT_EQ(decoded->request.source, request.source);
  EXPECT_EQ(decoded->request.kind, request.kind);
  EXPECT_EQ(decoded->request.target, request.target);
  EXPECT_EQ(decoded->request.params, request.params);
  EXPECT_EQ(decoded->request.timeout_ms, request.timeout_ms);
  EXPECT_EQ(decoded->request.fallback, request.fallback);
  EXPECT_EQ(decoded->request.failpoints, request.failpoints);
  EXPECT_EQ(decoded->prep_cache_dir, wire.prep_cache_dir);
  EXPECT_EQ(decoded->prep_cache_mb, wire.prep_cache_mb);
}

TEST(WorkerWireTest, ResultRoundTripsThroughCodec) {
  RequestReport result;
  result.status =
      ResourceExhaustedError("chain exhausted:\n  Hu/base -> INTERNAL");
  result.stage = "Hu";
  result.variant = "no-aorder";
  result.triangles = 123456789012345;
  result.attempts = 3;
  result.trace = {"Hu/base -> INTERNAL: injected", "Hu/no-aorder -> OK"};
  result.materialize_ms = 1.25;

  RequestReport decoded;
  decoded.id = "kept";
  const Status status =
      DecodeWorkerResult(EncodeWorkerResult(result), &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.id, "kept");  // Only execution fields travel.
  EXPECT_EQ(decoded.status, result.status) << decoded.status.ToString();
  EXPECT_EQ(decoded.stage, result.stage);
  EXPECT_EQ(decoded.variant, result.variant);
  EXPECT_EQ(decoded.triangles, result.triangles);
  EXPECT_EQ(decoded.attempts, result.attempts);
  EXPECT_EQ(decoded.trace, result.trace);
  EXPECT_EQ(decoded.materialize_ms, result.materialize_ms);
}

TEST(WorkerWireTest, DecodeIsStrictAboutUnknownKeysAndMissingId) {
  EXPECT_EQ(DecodeWorkerRequest("bogus=1\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeWorkerRequest("source=x\n").status().code(),
            StatusCode::kInvalidArgument);  // No id.
  RequestReport report;
  EXPECT_EQ(DecodeWorkerResult("attempts=not-a-number\n", &report).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(report.attempts, 0);  // A failed decode leaves the report alone.
}

// -- framing ---------------------------------------------------------------

TEST(WorkerFrameTest, FrameRoundTripsOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteFrame(fds[1], kFrameHeartbeat, "tick").ok());
  const StatusOr<WireFrame> frame = ReadFrame(fds[0]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, kFrameHeartbeat);
  EXPECT_EQ(frame->body, "tick");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WorkerFrameTest, CleanEofIsFailedPreconditionNotDataLoss) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[1]);
  EXPECT_EQ(ReadFrame(fds[0]).status().code(),
            StatusCode::kFailedPrecondition);
  ::close(fds[0]);
}

TEST(WorkerFrameTest, TornFrameIsDataLoss) {
  // A full header promising 100 payload bytes, then EOF after 10: the
  // signature a SIGKILLed writer leaves behind.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char header[8] = {100, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::write(fds[1], header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  const char partial[10] = {'H', 'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x'};
  ASSERT_EQ(::write(fds[1], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(fds[1]);
  EXPECT_EQ(ReadFrame(fds[0]).status().code(), StatusCode::kDataLoss);
  ::close(fds[0]);
}

TEST(WorkerFrameTest, ChecksumMismatchIsDataLoss) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // len=5, crc deliberately wrong, payload "Hello".
  const unsigned char bytes[] = {5,   0,   0,   0,   0xde, 0xad, 0xbe,
                                 0xef, 'H', 'e', 'l', 'l',  'o'};
  ASSERT_EQ(::write(fds[1], bytes, sizeof(bytes)),
            static_cast<ssize_t>(sizeof(bytes)));
  ::close(fds[1]);
  EXPECT_EQ(ReadFrame(fds[0]).status().code(), StatusCode::kDataLoss);
  ::close(fds[0]);
}

TEST(WorkerFrameTest, ReadWithDeadlineTimesOutOnASilentPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_EQ(ReadFrame(fds[0], Deadline::AfterMillis(30)).status().code(),
            StatusCode::kDeadlineExceeded);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WorkerFrameTest, ReadTimesOutOnAFrameThatStopsMidway) {
  // A writer that wedges mid-frame, its pipe still open: the deadline bounds
  // the payload as well as the header.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string frame = EncodeFrame(std::string(1, kFrameResult) + "body");
  const size_t partial = frame.size() - 4;
  ASSERT_EQ(::write(fds[1], frame.data(), partial),
            static_cast<ssize_t>(partial));
  EXPECT_EQ(ReadFrame(fds[0], Deadline::AfterMillis(30)).status().code(),
            StatusCode::kDeadlineExceeded);
  ::close(fds[0]);
  ::close(fds[1]);
}

// -- spawn fail points -----------------------------------------------------

TEST(WorkerSpawnTest, SpawnFailPointFailsBeforeFork) {
  FailPointRegistry::Instance().Reset();
  FailPointRegistry::Instance().Arm("worker.spawn", FailPointSpec{});
  WorkerSpawnOptions options;
  options.binary = Binary();
  const StatusOr<WorkerProcess> spawned = WorkerProcess::Spawn(options);
  FailPointRegistry::Instance().Reset();
  ASSERT_FALSE(spawned.ok());
  EXPECT_EQ(spawned.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(NoChildProcesses());  // Failed before fork: nothing to reap.
}

TEST(WorkerSpawnTest, ExecFailPointReportsExecveErrnoFromTheChild) {
  FailPointRegistry::Instance().Reset();
  FailPointRegistry::Instance().Arm("worker.exec", FailPointSpec{});
  WorkerSpawnOptions options;
  options.binary = Binary();
  const StatusOr<WorkerProcess> spawned = WorkerProcess::Spawn(options);
  FailPointRegistry::Instance().Reset();
  ASSERT_FALSE(spawned.ok());
  EXPECT_NE(spawned.status().message().find("exec"), std::string::npos)
      << spawned.status().ToString();
  EXPECT_TRUE(NoChildProcesses());  // Spawn reaps its own exec failures.
}

// -- supervised dispatch ---------------------------------------------------

TEST(SupervisorTest, DispatchesARequestAndReusesTheWorker) {
  Supervisor supervisor(FastOptions());
  ASSERT_TRUE(supervisor.Start().ok());

  RequestReport first_report;
  const StatusOr<WorkerDispatch> first = supervisor.Execute(
      GenRequest("1:gen:er"), Deadline::Infinite(), &first_report);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first_report.status.ok()) << first_report.status.ToString();
  EXPECT_GT(first_report.triangles, 0);
  EXPECT_EQ(first_report.stage, "Hu");
  EXPECT_GT(first->pid, 0);
  EXPECT_EQ(supervisor.ActiveWorkers(), 1);
  EXPECT_EQ(ActiveGaugeValue(), 1.0);

  RequestReport second_report;
  const StatusOr<WorkerDispatch> second = supervisor.Execute(
      GenRequest("2:gen:er"), Deadline::Infinite(), &second_report);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->pid, first->pid);  // Same worker, warm reuse.
  EXPECT_EQ(second_report.triangles, first_report.triangles);

  supervisor.Shutdown();
  EXPECT_EQ(supervisor.ActiveWorkers(), 0);
  EXPECT_EQ(ActiveGaugeValue(), 0.0);
  EXPECT_TRUE(NoChildProcesses());
}

TEST(SupervisorTest, WorkerCrashFailsOnlyThatRequestAndRestarts) {
  const int64_t crashes_before = RestartCount("crash");
  Supervisor supervisor(FastOptions());
  ASSERT_TRUE(supervisor.Start().ok());

  WorkerRequest poisoned = GenRequest("1:gen:er");
  poisoned.request.failpoints = "tc.block=crash@1";
  RequestReport report;
  const StatusOr<WorkerDispatch> crashed =
      supervisor.Execute(poisoned, Deadline::Infinite(), &report);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kInternal);
  EXPECT_NE(crashed.status().message().find("worker crashed"),
            std::string::npos)
      << crashed.status().ToString();
  EXPECT_EQ(RestartCount("crash"), crashes_before + 1);

  // The pool recovers: the next request respawns a worker and succeeds.
  const StatusOr<WorkerDispatch> clean =
      supervisor.Execute(GenRequest("2:gen:er"), Deadline::Infinite(), &report);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_GT(report.triangles, 0);

  supervisor.Shutdown();
  EXPECT_TRUE(NoChildProcesses());
}

TEST(SupervisorTest, TornResultFrameIsClassifiedAsACrashNotDataLoss) {
  const int64_t crashes_before = RestartCount("crash");
  Supervisor supervisor(FastOptions());
  ASSERT_TRUE(supervisor.Start().ok());

  WorkerRequest poisoned = GenRequest("1:gen:er");
  poisoned.request.failpoints = "worker.response.torn=crash@1";
  RequestReport report;
  const StatusOr<WorkerDispatch> torn =
      supervisor.Execute(poisoned, Deadline::Infinite(), &report);
  ASSERT_FALSE(torn.ok());
  // The half-written frame must surface as a crash of the worker, never as
  // DataLoss the caller might mistake for corrupt *storage*.
  EXPECT_EQ(torn.status().code(), StatusCode::kInternal);
  EXPECT_NE(torn.status().message().find("worker crashed"), std::string::npos)
      << torn.status().ToString();
  EXPECT_EQ(RestartCount("crash"), crashes_before + 1);

  supervisor.Shutdown();
  EXPECT_TRUE(NoChildProcesses());
}

TEST(SupervisorTest, SilentWorkerIsKilledAsHung) {
  const int64_t hangs_before = RestartCount("hang");
  Supervisor supervisor(FastOptions());
  ASSERT_TRUE(supervisor.Start().ok());

  WorkerRequest wedged = GenRequest("1:gen:er");
  wedged.request.failpoints = "worker.hang=internal@1";  // No beats.
  RequestReport report;
  const StatusOr<WorkerDispatch> hung =
      supervisor.Execute(wedged, Deadline::Infinite(), &report);
  ASSERT_FALSE(hung.ok());
  EXPECT_EQ(hung.status().code(), StatusCode::kInternal);
  EXPECT_NE(hung.status().message().find("worker hung"), std::string::npos)
      << hung.status().ToString();
  EXPECT_EQ(RestartCount("hang"), hangs_before + 1);

  supervisor.Shutdown();
  EXPECT_TRUE(NoChildProcesses());
}

// A worker still loading its graph polls no deadline, so only the kill at
// deadline + grace ends the request.
TEST(SupervisorTest, DeadlineKillsAWorkerStillLoading) {
  const int64_t deadlines_before = RestartCount("deadline");
  Supervisor supervisor(FastOptions());
  ASSERT_TRUE(supervisor.Start().ok());

  RequestReport report;
  const StatusOr<WorkerDispatch> killed = supervisor.Execute(
      SlowRequest("1:gen:rmat"), Deadline::AfterMillis(50), &report);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(killed.status().message().find("request deadline expired"),
            std::string::npos)
      << killed.status().ToString();
  EXPECT_EQ(RestartCount("deadline"), deadlines_before + 1);

  supervisor.Shutdown();
  EXPECT_TRUE(NoChildProcesses());
}

TEST(SupervisorTest, DrainGraceKillsABusyWorker) {
  const int64_t drains_before = RestartCount("drain");
  Supervisor supervisor(FastOptions());
  ASSERT_TRUE(supervisor.Start().ok());

  RequestReport report;
  StatusOr<WorkerDispatch> killed = InternalError("not run");
  std::thread dispatch([&] {
    killed = supervisor.Execute(SlowRequest("1:gen:rmat"),
                                Deadline::Infinite(), &report);
  });
  // A live worker is a leased one: the slot turns busy as it spawns.
  for (int waited_ms = 0; supervisor.ActiveWorkers() < 1 && waited_ms < 10000;
       waited_ms += 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(supervisor.ActiveWorkers(), 1);
  supervisor.RequestDrain(Deadline::AfterMillis(50));
  dispatch.join();

  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kCancelled);
  EXPECT_NE(killed.status().message().find("drain grace expired"),
            std::string::npos)
      << killed.status().ToString();
  EXPECT_EQ(RestartCount("drain"), drains_before + 1);

  supervisor.Shutdown();
  EXPECT_TRUE(NoChildProcesses());
}

TEST(SupervisorTest, CrashLoopTripsBreakerAndHalfOpenProbeRecovers) {
  double fake_now_ms = 0.0;
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 2;
  breaker_options.open_cooldown_ms = 1000.0;
  breaker_options.half_open_probes = 1;
  CircuitBreaker breaker(breaker_options, [&fake_now_ms] { return fake_now_ms; });

  SupervisorOptions options = FastOptions();
  options.breaker = &breaker;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());

  WorkerRequest poisoned = GenRequest("1:gen:er");
  poisoned.request.failpoints = "tc.block=crash@1";
  RequestReport report;
  for (int i = 0; i < breaker_options.failure_threshold; ++i) {
    const StatusOr<WorkerDispatch> crashed =
        supervisor.Execute(poisoned, Deadline::Infinite(), &report);
    ASSERT_FALSE(crashed.ok());
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Open breaker: dispatch is refused with the marker the batch service
  // keys its cpu failover on.
  const StatusOr<WorkerDispatch> refused =
      supervisor.Execute(GenRequest("2:gen:er"), Deadline::Infinite(), &report);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsWorkerBreakerOpen(refused.status()));

  // Advance the fake clock past the cooldown: the next Execute is the
  // half-open probe; its clean result closes the breaker again.
  fake_now_ms += 2000.0;
  const StatusOr<WorkerDispatch> probe =
      supervisor.Execute(GenRequest("3:gen:er"), Deadline::Infinite(), &report);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_GT(report.triangles, 0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  supervisor.Shutdown();
  EXPECT_TRUE(NoChildProcesses());
}

TEST(SupervisorTest, CleanResultWithRequestLevelErrorDoesNotTripBreaker) {
  // A per-request injected fault (error, not crash) comes back as a clean
  // 'R' frame with a non-OK embedded status: worker health is fine, so the
  // breaker must see success, not failure.
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 1;  // Hair trigger.
  CircuitBreaker breaker(breaker_options);
  SupervisorOptions options = FastOptions();
  options.breaker = &breaker;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());

  WorkerRequest faulted = GenRequest("1:gen:er");
  faulted.request.fallback = "Hu";  // No cpu net: the fault exhausts it.
  faulted.request.failpoints = "tc.block=internal";
  RequestReport report;
  const StatusOr<WorkerDispatch> dispatched =
      supervisor.Execute(faulted, Deadline::Infinite(), &report);
  ASSERT_TRUE(dispatched.ok()) << dispatched.status().ToString();
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  supervisor.Shutdown();
  EXPECT_TRUE(NoChildProcesses());
}

// Two dispatches on a one-slot pool: the second waits for the first to
// release the worker and then reuses it.
TEST(SupervisorTest, SecondRequestWaitsForTheBusyWorker) {
  Supervisor supervisor(FastOptions());
  ASSERT_TRUE(supervisor.Start().ok());

  RequestReport reports[2];
  StatusOr<WorkerDispatch> dispatched[2] = {InternalError("not run"),
                                            InternalError("not run")};
  std::vector<std::thread> callers;
  for (int i = 0; i < 2; ++i) {
    callers.emplace_back([&, i] {
      dispatched[i] =
          supervisor.Execute(GenRequest(std::to_string(i + 1) + ":gen:er"),
                             Deadline::Infinite(), &reports[i]);
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(dispatched[i].ok()) << dispatched[i].status().ToString();
    EXPECT_GT(reports[i].triangles, 0);
  }
  EXPECT_EQ(dispatched[0]->pid, dispatched[1]->pid);
  EXPECT_EQ(supervisor.ActiveWorkers(), 1);

  supervisor.Shutdown();
  EXPECT_TRUE(NoChildProcesses());
}

TEST(SupervisorTest, DrainRefusesNewWorkAndReapsIdleWorkers) {
  Supervisor supervisor(FastOptions());
  ASSERT_TRUE(supervisor.Start().ok());
  RequestReport report;
  const StatusOr<WorkerDispatch> warm =
      supervisor.Execute(GenRequest("1:gen:er"), Deadline::Infinite(), &report);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(supervisor.ActiveWorkers(), 1);

  supervisor.RequestDrain(Deadline::AfterMillis(100));
  EXPECT_EQ(supervisor.ActiveWorkers(), 0);  // Idle worker reaped on drain.
  const StatusOr<WorkerDispatch> refused =
      supervisor.Execute(GenRequest("2:gen:er"), Deadline::Infinite(), &report);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCancelled);

  supervisor.Shutdown();
  EXPECT_TRUE(NoChildProcesses());
}

// -- the batch service under isolation -------------------------------------

BatchRequest MissingFileRequest(const std::string& id) {
  BatchRequest request;
  request.id = id;
  request.source = "/nonexistent-gputc-dir/missing.bin";
  request.kind = BatchRequest::Kind::kFile;
  request.target = request.source;
  return request;
}

/// Runs `requests` one at a time through a BatchService and returns its
/// reports in journal order.
std::vector<RequestReport> RunBatch(BatchServiceOptions options,
                                    const std::vector<BatchRequest>& requests) {
  options.jobs = 1;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  for (const BatchRequest& request : requests) service.Submit(request);
  service.Finish();
  return journal.reports();
}

TEST(IsolatedBatchTest, WorkersReportWhatTheInProcessPathReports) {
  FailPointRegistry::Instance().Reset();
  std::vector<BatchRequest> requests;
  requests.push_back(GenBatchRequest("1:clean"));
  requests.push_back(GenBatchRequest("2:poisoned"));
  requests.back().failpoints = "tc.block=internal@3";
  requests.push_back(GenBatchRequest("3:bad-schedule"));
  requests.back().failpoints = "not-a-schedule";
  requests.push_back(GenBatchRequest("4:duplicate-chain"));
  requests.back().fallback = "hu,hu";
  requests.push_back(GenBatchRequest("5:override"));
  requests.back().fallback = "TriCore,cpu";
  requests.push_back(MissingFileRequest("6:missing"));

  const std::vector<RequestReport> in_process =
      RunBatch(BatchServiceOptions{}, requests);
  // The in-process run armed its per-request schedules process-wide.
  FailPointRegistry::Instance().Reset();
  BatchServiceOptions isolated_options;
  isolated_options.isolate = 1;
  isolated_options.worker_binary = Binary();
  const std::vector<RequestReport> isolated =
      RunBatch(isolated_options, requests);

  ASSERT_EQ(in_process.size(), requests.size());
  ASSERT_EQ(isolated.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const RequestReport& local = in_process[i];
    const RequestReport& worker = isolated[i];
    EXPECT_EQ(worker.id, local.id);
    EXPECT_EQ(worker.outcome, local.outcome) << local.id;
    EXPECT_EQ(worker.status, local.status)
        << local.id << ": " << local.status.ToString() << " vs "
        << worker.status.ToString();
    EXPECT_EQ(worker.stage, local.stage) << local.id;
    EXPECT_EQ(worker.variant, local.variant) << local.id;
    EXPECT_EQ(worker.triangles, local.triangles) << local.id;
    EXPECT_EQ(worker.attempts, local.attempts) << local.id;
    EXPECT_EQ(worker.trace, local.trace) << local.id;
  }
  // The requests reach every outcome a worker can report.
  EXPECT_EQ(in_process[0].outcome, RequestOutcome::kOk);
  EXPECT_EQ(in_process[1].outcome, RequestOutcome::kDegraded);
  EXPECT_EQ(in_process[1].stage, "cpu");
  EXPECT_EQ(in_process[2].outcome, RequestOutcome::kFailed);
  EXPECT_EQ(in_process[3].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(in_process[4].stage, "TriCore");
  EXPECT_EQ(in_process[5].status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(NoChildProcesses());
}

// timeout-ms is one wall-clock budget from pickup on every path: a request
// whose budget runs out before its count fails DEADLINE_EXCEEDED in-process
// and on a worker alike. The messages name where the clock ran out, so only
// the outcome and the code are compared.
TEST(IsolatedBatchTest, DeadlineFailsTheSameWayOnEveryPath) {
  FailPointRegistry::Instance().Reset();
  std::vector<BatchRequest> requests;
  for (int i = 1; i <= 20; ++i) {
    BatchRequest request = GenBatchRequest(std::to_string(i) + ":deadline");
    request.source = "gen:er:nodes=300,edges=1500,seed=1";
    request.params = {{"nodes", "300"}, {"edges", "1500"}, {"seed", "1"}};
    request.timeout_ms = 0.001;
    requests.push_back(request);
  }
  BatchServiceOptions isolated;
  isolated.isolate = 1;
  isolated.worker_binary = Binary();
  for (const BatchServiceOptions& options :
       {BatchServiceOptions{}, isolated}) {
    const std::vector<RequestReport> reports = RunBatch(options, requests);
    ASSERT_EQ(reports.size(), requests.size());
    for (const RequestReport& report : reports) {
      EXPECT_EQ(report.outcome, RequestOutcome::kFailed)
          << "isolate=" << options.isolate << " " << report.id << ": "
          << report.status.ToString();
      EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded)
          << "isolate=" << options.isolate << " " << report.id << ": "
          << report.status.ToString();
    }
  }
  EXPECT_TRUE(NoChildProcesses());
}

TEST(IsolatedBatchTest, OpenWorkerBreakerFailsOverToTheInProcessCpuCounter) {
  FailPointRegistry::Instance().Reset();
  BatchServiceOptions options;
  options.jobs = 1;
  options.isolate = 1;
  options.worker_binary = Binary();
  options.breaker.open_cooldown_ms = 600000.0;
  BatchService service(options);
  for (int i = 0; i < options.breaker.failure_threshold; ++i) {
    service.breakers().ForBackend("worker").RecordFailure();
  }
  const ReportLog journal(service);
  service.Start();
  service.Submit(GenBatchRequest("1:clean"));
  service.Submit(MissingFileRequest("2:missing"));
  // Look for workers while the service still runs: Finish would reap them.
  for (int waited_ms = 0; journal.reports().size() < 2 && waited_ms < 60000;
       waited_ms += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ActiveGaugeValue(), 0.0);
  EXPECT_TRUE(NoChildProcesses());
  service.Finish();

  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), 2u);
  const StatusOr<Graph> graph = MaterializeRequest(GenBatchRequest("probe"));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(reports[0].outcome, RequestOutcome::kDegraded)
      << reports[0].status.ToString();
  EXPECT_EQ(reports[0].stage, "cpu");
  EXPECT_EQ(reports[0].triangles, CountTrianglesForward(*graph));
  EXPECT_EQ(reports[1].outcome, RequestOutcome::kFailed);
  EXPECT_EQ(reports[1].status.code(), StatusCode::kNotFound)
      << reports[1].status.ToString();
}

}  // namespace
}  // namespace gputc
