#include "service/batch_service.h"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace gputc {
namespace {

double MillisBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Stop errors are the caller's budget expiring, not evidence the backend is
/// unhealthy — they must not trip its breaker.
bool IsBackendAttributable(const Status& status) {
  return status.code() != StatusCode::kCancelled &&
         status.code() != StatusCode::kDeadlineExceeded;
}

/// One pressure counter shared by every overload gate in the stack — the
/// serve daemon's adaptive limiter and queue bound record "concurrency" and
/// "queue" here, this service records "queue" (shed policy) and "memory"
/// (admission refusal) — so a dashboard reads back pressure by cause.
void CountOverloadRejection(const char* reason) {
  MetricsRegistry::Global()
      .GetCounter("gputc_overload_rejections_total",
                  "Requests shed by an overload gate, by reason",
                  {{"reason", reason}})
      .Increment();
}

void RecordQueueDepth(size_t depth) {
  MetricsRegistry::Global()
      .GetGauge("gputc_queue_depth",
                "Requests waiting in the batch service work queue")
      .Set(static_cast<double>(depth));
}

}  // namespace

int64_t BatchSummary::Total() const {
  int64_t total = 0;
  for (int64_t count : outcomes) total += count;
  return total;
}

bool BatchSummary::AllSucceeded() const {
  return CountOutcome(RequestOutcome::kRejected) == 0 &&
         CountOutcome(RequestOutcome::kFailed) == 0;
}

bool BatchSummary::NoneSucceeded() const {
  return CountOutcome(RequestOutcome::kOk) == 0 &&
         CountOutcome(RequestOutcome::kDegraded) == 0;
}

BatchService::BatchService(BatchServiceOptions options)
    : options_(std::move(options)),
      prep_cache_(MakeTieredPrepCache(options_.prep_cache_dir,
                                      options_.prep_cache_mb)),
      queue_(options_.queue_depth, options_.shed_policy),
      admission_(options_.mem_budget_bytes),
      breakers_(options_.breaker) {
  GPUTC_CHECK_GT(options_.jobs, 0);
  GPUTC_CHECK(!options_.chain.empty());
}

BatchService::~BatchService() {
  if (started_.load() && !finished_.load()) Finish();
}

void BatchService::Start() {
  GPUTC_CHECK(!started_.exchange(true)) << "BatchService started twice";
  if (options_.isolate > 0) {
    SupervisorOptions supervision;
    supervision.binary = options_.worker_binary;
    supervision.workers = options_.isolate;
    // In isolate mode the global admission budget becomes each worker's
    // RLIMIT_AS: containment by the kernel instead of by cooperative
    // accounting.
    supervision.rlimit_as_bytes = options_.mem_budget_bytes;
    supervision.breaker = &breakers_.ForBackend("worker");
    supervisor_ = std::make_unique<Supervisor>(supervision);
    const Status started = supervisor_->Start();
    GPUTC_CHECK(started.ok()) << started.ToString();
  }
  workers_.reserve(static_cast<size_t>(options_.jobs));
  for (int i = 0; i < options_.jobs; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void BatchService::Submit(BatchRequest request) {
  const Clock::time_point now = Clock::now();
  // The service is a resilient path, so its intake opts into fault
  // injection: an armed service.enqueue site sheds the request up front.
  FailPointScope scope;
  const Status injected = CheckFailPoint("service.enqueue");
  if (!injected.ok()) {
    Journal(RejectedReport(request, injected.WithContext("service.enqueue"),
                           0.0));
    return;
  }
  if (draining()) {
    Journal(RejectedReport(
        request,
        CancelledError("service is draining; request not admitted"), 0.0));
    return;
  }
  QueuedRequest queued{request, now};
  WorkQueue<QueuedRequest>::PushResult pushed = queue_.Push(std::move(queued));
  RecordQueueDepth(queue_.size());
  if (pushed.shed.has_value()) {
    // drop-oldest evicted the head of the queue to make room.
    CountOverloadRejection("queue");
    Journal(RejectedReport(
        pushed.shed->request,
        ResourceExhaustedError(
            "evicted from a full work queue by shed policy 'drop-oldest'"),
        MillisBetween(pushed.shed->enqueued_at, Clock::now())));
  }
  if (!pushed.status.ok()) {
    // kReject shed, or the queue closed under us (drain won the race).
    if (pushed.status.code() == StatusCode::kResourceExhausted) {
      CountOverloadRejection("queue");
    }
    Journal(RejectedReport(request, pushed.status, 0.0));
  }
}

void BatchService::RequestDrain(std::string reason) {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  const Deadline grace =
      Deadline::AfterMillis(std::max(0.0, options_.drain_grace_ms));
  // In-flight executions run until the grace period ends; from then on
  // each one's next poll of the token stops it.
  drain_cancel_.CancelAt(grace,
                         "drain grace period expired (" + reason + ")");
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    drain_reason_ = reason;
  }
  queue_.Close();
  // Queued-but-unstarted work never executes; journal every entry so the
  // caller can still account for the whole batch.
  for (QueuedRequest& flushed : queue_.FlushPending()) {
    Journal(RejectedReport(
        flushed.request,
        CancelledError("service drained before execution started: " +
                       reason),
        MillisBetween(flushed.enqueued_at, Clock::now())));
  }
  // Wake admission waiters.
  admission_.Abort();
  // Isolated workers are processes, not cooperative threads: the supervisor
  // kills and reaps idle ones now and busy ones when the grace expires, so a
  // drain (including the signal-watcher path) leaks no child processes.
  if (supervisor_ != nullptr) supervisor_->RequestDrain(grace);
}

BatchSummary BatchService::Finish() {
  GPUTC_CHECK(started_.load()) << "Finish() before Start()";
  if (!finished_.exchange(true)) {
    queue_.Close();
    for (std::thread& worker : workers_) worker.join();
    // All dispatch threads are joined, so every remaining worker is idle:
    // kill, reap, and account for each — the no-zombies guarantee.
    if (supervisor_ != nullptr) supervisor_->Shutdown();
  }
  BatchSummary summary;
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    summary.outcomes = outcomes_;
  }
  summary.drained = draining();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    summary.drain_reason = drain_reason_;
  }
  return summary;
}

void BatchService::WorkerLoop() {
  while (true) {
    std::optional<QueuedRequest> queued = queue_.Pop();
    if (!queued.has_value()) return;
    RecordQueueDepth(queue_.size());
    Process(*std::move(queued));
  }
}

void BatchService::Process(QueuedRequest queued) {
  const Clock::time_point picked_up = Clock::now();
  const double queue_ms = MillisBetween(queued.enqueued_at, picked_up);
  const BatchRequest& request = queued.request;
  // The request's one clock starts at pickup and covers every path below.
  const Deadline deadline = Deadline::FromTimeoutMs(
      request.timeout_ms >= 0.0 ? request.timeout_ms
                                : options_.request_timeout_ms);

  RequestReport report;
  report.id = request.id;
  report.source = request.source;
  // Every processed request gets a correlation id, tracer or not, so the
  // journal line is joinable against any external log of the same batch.
  report.trace_id = GenerateTraceId();
  report.queue_ms = queue_ms;

  Tracer* const tracer = options_.tracer;
  Span request_span = tracer != nullptr
                          ? tracer->StartSpan("request", report.trace_id)
                          : Span();
  request_span.SetAttr("id", request.id);
  request_span.SetAttr("source", request.source);
  request_span.SetAttr("queue_ms", queue_ms);

  // Worker processing is a resilient path end to end: materialization,
  // admission, and execution all see armed fail points.
  FailPointScope scope;

  const auto finish = [&](RequestOutcome outcome, Status status) {
    report.outcome = outcome;
    report.status = std::move(status);
    report.exec_ms = MillisBetween(picked_up, Clock::now());
    request_span.SetAttr("outcome", RequestOutcomeName(outcome));
    Journal(report, request_span.id());
  };

  const Status worker_fault = CheckFailPoint("service.worker");
  if (!worker_fault.ok()) {
    finish(RequestOutcome::kFailed, worker_fault.WithContext("service.worker"));
    return;
  }

  if (supervisor_ != nullptr) {
    // Process isolation: the worker subprocess materializes and executes;
    // this thread only dispatches and classifies. Admission is skipped —
    // each worker's RLIMIT_AS is the memory fence.
    ProcessIsolated(request, deadline, &report, request_span.id(), finish);
    return;
  }

  // The "admit" span covers everything between pickup and execution:
  // materializing the graph and waiting on the memory admission gate.
  Span admit_span =
      tracer != nullptr
          ? tracer->StartSpan("admit", report.trace_id, request_span.id())
          : Span();
  int64_t reserved = 0;  // Bytes held at the admission gate.
  std::vector<FallbackStage> allowed;
  const auto admit = [&](const Graph& graph, std::vector<FallbackStage>* chain,
                         RequestOutcome* outcome) -> Status {
    // Admission: the injected fault and genuine refusals are both sheds —
    // the request never started executing. A request whose base
    // fingerprint is already cached skips the preprocessing recompute, so
    // it is admitted with the smaller post-cache estimate; one that misses
    // holds the cache's new artifact beside its own copy.
    PreprocessOptions base;
    base.prep_cache = prep_cache();
    const int64_t estimate =
        EstimateRequestHostBytes(graph, DeviceSpec::TitanXpLike(), base);
    admit_span.SetAttr("estimate_bytes", estimate);
    const Clock::time_point admit_start = Clock::now();
    Status admitted = CheckFailPoint("service.admit");
    if (admitted.ok()) {
      admitted = admission_.Admit(estimate, drain_cancel_, deadline);
    }
    report.admit_ms = MillisBetween(admit_start, Clock::now());
    admit_span.SetStatus(admitted);
    admit_span.Finish();
    if (!admitted.ok()) {
      // A request whose own deadline passed while it waited fails; every
      // other refusal — budget, drain abort — is a shed.
      if (admitted.code() != StatusCode::kDeadlineExceeded) {
        *outcome = RequestOutcome::kRejected;
        // A genuine budget refusal is back pressure; a drain abort is not.
        if (!draining()) CountOverloadRejection("memory");
      }
      return admitted.WithContext("admission (needs ~" +
                                  std::to_string(estimate) + " bytes)");
    }
    reserved = estimate;

    // Resolve the fallback chain: per-request override, then route around
    // backends whose breaker is open.
    if (!request.fallback.empty()) {
      StatusOr<std::vector<FallbackStage>> parsed =
          ParseFallbackChain(request.fallback);
      if (!parsed.ok()) return parsed.status().WithContext("fallback override");
      *chain = *std::move(parsed);
    }
    for (const FallbackStage& stage : *chain) {
      if (breakers_.ForBackend(stage.name()).Allow()) allowed.push_back(stage);
    }
    if (allowed.empty()) {
      *outcome = RequestOutcome::kRejected;
      return ResourceExhaustedError(
          "every fallback backend has an open circuit breaker");
    }
    *chain = allowed;

    // A per-request fail-point schedule arms the process-wide registry
    // here: without isolation there is no narrower blast radius to offer,
    // which is exactly what the containment tests demonstrate (a crash
    // schedule on one manifest line kills the whole in-process service, but
    // only one worker under --isolate).
    if (request.failpoints.empty()) return OkStatus();
    return FailPointRegistry::Instance()
        .ArmFromString(request.failpoints)
        .WithContext("failpoints override");
  };

  ExecutionPolicy policy;
  policy.deadline = deadline;
  policy.cancel = drain_cancel_;
  policy.tracer = tracer;
  policy.trace_id = report.trace_id;
  policy.parent_span = request_span.id();
  const ExecutionTrace trace =
      RunRequest(request, options_.chain, policy, prep_cache(),
                 options_.chain.front().name(), &report, admit);
  // The span is still open only when the load failed before the gate ran.
  admit_span.SetStatus(report.status);
  admit_span.Finish();

  // Also returns the probes of a gate that refused after granting them.
  FeedBreakers(allowed, trace);
  if (reserved > 0) admission_.Release(reserved);
  finish(report.outcome, report.status);
}

void BatchService::ProcessIsolated(
    const BatchRequest& request, Deadline deadline, RequestReport* report,
    uint64_t parent_span_id,
    const std::function<void(RequestOutcome, Status)>& finish) {
  Tracer* const tracer = options_.tracer;
  const std::string primary = options_.chain.front().name();

  // Workers keep a private tier 1 but share the durable tier-2 directory, so
  // an artifact computed by any worker (or by an earlier batch) is reusable
  // pool-wide across process restarts.
  WorkerRequest wire{request, options_.prep_cache_dir,
                     options_.prep_cache_mb};
  if (wire.request.fallback.empty()) {
    for (const FallbackStage& stage : options_.chain) {
      if (!wire.request.fallback.empty()) wire.request.fallback += ",";
      wire.request.fallback += stage.name();
    }
  }

  Span dispatch_span = tracer != nullptr
                           ? tracer->StartSpan("worker.dispatch",
                                               report->trace_id, parent_span_id)
                           : Span();
  StatusOr<WorkerDispatch> dispatched =
      supervisor_->Execute(std::move(wire), deadline, report);

  if (dispatched.ok()) {
    dispatch_span.SetAttr("worker_pid",
                          static_cast<int64_t>(dispatched->pid));
    dispatch_span.SetAttr("worker_index",
                          static_cast<int64_t>(dispatched->worker_index));
    dispatch_span.Finish();
    finish(CountedOutcome(*report, primary), report->status);
    return;
  }

  dispatch_span.SetStatus(dispatched.status());
  dispatch_span.Finish();

  if (!IsWorkerBreakerOpen(dispatched.status())) {
    // Crash, hang, rlimit, deadline, or drain: that one request fails (the
    // poison-pill policy — a request that kills its worker is never retried
    // across the pool), everything else in flight proceeds.
    finish(RequestOutcome::kFailed, dispatched.status());
    return;
  }

  // Crash loop tripped the "worker" breaker: fail over to the in-process
  // cpu counter so the batch keeps making (degraded) progress while the
  // benched worker pool cools down toward its half-open probe.
  Span failover_span =
      tracer != nullptr
          ? tracer->StartSpan("cpu.failover", report->trace_id, parent_span_id)
          : Span();
  ExecutionPolicy policy;
  policy.deadline = deadline;
  policy.cancel = drain_cancel_;
  policy.tracer = tracer;
  policy.trace_id = report->trace_id;
  policy.parent_span = failover_span.id();
  RunRequest(request, {FallbackStage{true}}, policy, prep_cache(), primary,
             report);
  failover_span.SetStatus(report->status);
  failover_span.Finish();
  finish(report->outcome, report->status.WithContext(
                              "cpu failover (worker circuit breaker open)"));
}

void BatchService::FeedBreakers(const std::vector<FallbackStage>& allowed,
                                const ExecutionTrace& trace) {
  // Aggregate per stage: a stage that produced the result is a success, a
  // stage whose every attempt failed with a backend-attributable error is a
  // failure, and a granted stage the chain never reached returns its probe.
  std::set<std::string> succeeded;
  std::set<std::string> failed;
  std::set<std::string> attempted;
  for (const AttemptRecord& attempt : trace.attempts) {
    attempted.insert(attempt.stage);
    if (attempt.status.ok()) {
      succeeded.insert(attempt.stage);
    } else if (IsBackendAttributable(attempt.status)) {
      failed.insert(attempt.stage);
    }
  }
  for (const FallbackStage& stage : allowed) {
    const std::string name = stage.name();
    CircuitBreaker& breaker = breakers_.ForBackend(name);
    if (succeeded.count(name) > 0) {
      breaker.RecordSuccess();
    } else if (failed.count(name) > 0) {
      breaker.RecordFailure();
    } else if (attempted.count(name) == 0) {
      breaker.CancelProbe();
    }
    // Attempted stages that only saw stop errors (deadline/cancel) report
    // nothing: the backend was neither proven healthy nor unhealthy.
  }
}

void BatchService::Journal(const RequestReport& report, uint64_t parent_span) {
  {
    Span journal_span =
        options_.tracer != nullptr
            ? options_.tracer->StartSpan("journal", report.trace_id,
                                         parent_span)
            : Span();
    journal_span.SetAttr("outcome", RequestOutcomeName(report.outcome));
  }
  MetricsRegistry::Global()
      .GetCounter("gputc_requests_total",
                  "Batch requests journaled, by terminal outcome",
                  {{"outcome", RequestOutcomeName(report.outcome)}})
      .Increment();
  MetricsRegistry::Global()
      .GetHistogram("gputc_request_queue_ms",
                    "Submit-to-worker-pickup wait in milliseconds", 0.0,
                    10000.0, 20)
      .Observe(report.queue_ms);
  MetricsRegistry::Global()
      .GetHistogram("gputc_request_exec_ms",
                    "Worker processing time in milliseconds", 0.0, 10000.0, 20)
      .Observe(report.exec_ms);
  std::lock_guard<std::mutex> lock(journal_mu_);
  ++outcomes_[static_cast<size_t>(report.outcome)];
  if (on_report_) on_report_(report);
}

RequestReport BatchService::RejectedReport(const BatchRequest& request,
                                           Status reason,
                                           double queue_ms) const {
  RequestReport report;
  report.id = request.id;
  report.source = request.source;
  // Shed requests never execute, but they still get a correlation id: a
  // rejected line with no trace_id would be the one unjoinable journal row.
  report.trace_id = GenerateTraceId();
  report.outcome = RequestOutcome::kRejected;
  report.status = std::move(reason);
  report.queue_ms = queue_ms;
  if (options_.reject_retry_after_ms >= 0.0) {
    report.retry_after_ms =
        static_cast<int64_t>(options_.reject_retry_after_ms);
  }
  return report;
}

}  // namespace gputc
