#ifndef GPUTC_SERVICE_BATCH_SERVICE_H_
#define GPUTC_SERVICE_BATCH_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/prep_cache.h"
#include "service/admission.h"
#include "service/cache_store.h"
#include "service/circuit_breaker.h"
#include "service/manifest.h"
#include "service/supervisor.h"
#include "service/work_queue.h"
#include "sim/device.h"
#include "util/deadline.h"

namespace gputc {

// The multi-request layer above ExecuteResilient: a thread-pooled batch
// execution service with production-grade overload protection. One request =
// one graph counted under the executor's per-request resilience; the service
// adds what a fleet of concurrent requests needs — a bounded work queue with
// a load-shedding policy, global memory admission control, per-backend
// circuit breakers, and graceful drain that accounts for every accepted
// request in a journal. A request's deadline and the drain's stop signal
// both travel in the ExecContext its stages already poll, so the service
// runs no thread of its own besides the workers.

/// Tuning of one BatchService.
struct BatchServiceOptions {
  /// Worker threads executing requests concurrently.
  int jobs = 4;
  /// Bounded queue depth between Submit and the workers.
  size_t queue_depth = 16;
  /// What Submit does when the queue is full.
  ShedPolicy shed_policy = ShedPolicy::kBlock;
  /// Global host-memory budget: the sum of EstimateRequestHostBytes over
  /// admitted requests stays under this. <= 0 disables the budget.
  int64_t mem_budget_bytes = 0;
  /// Per-request wall-clock budget, from pickup to the end of the count, on
  /// every path: in-process, on a worker and in the cpu failover. A request
  /// that runs out fails DEADLINE_EXCEEDED. <= 0 means no deadline. A
  /// manifest line's timeout-ms override takes precedence.
  double request_timeout_ms = 0.0;
  /// On drain, how long in-flight requests may keep running before the
  /// service's cancel token fires and each stops at its next poll. <= 0
  /// cancels immediately.
  double drain_grace_ms = 1000.0;
  /// Default fallback chain (a manifest line's fallback= override wins).
  std::vector<FallbackStage> chain = {
      FallbackStage{false, TcAlgorithm::kHu}, FallbackStage{true}};
  /// Per-backend breaker tuning.
  CircuitBreakerOptions breaker;
  /// Observability sink (optional, not owned; must outlive the service).
  /// When set, every processed request records a span tree — request >
  /// {admit, execute > attempts..., journal} — under its own trace id.
  /// Requests always carry a trace id in the journal, tracer or not.
  Tracer* tracer = nullptr;

  /// Process isolation (`gputc batch --isolate[=N]`). When > 0, requests
  /// execute in N supervised `gputc worker` subprocesses instead of
  /// in-process: a crash, hang, or memory blowup kills one worker and fails
  /// that one request, leaving every other in-flight request (and the
  /// journal/WAL invariants) intact. The global admission gate is skipped —
  /// mem_budget_bytes becomes each worker's RLIMIT_AS instead — and crash
  /// looping trips the "worker" backend breaker, failing requests over to
  /// the in-process cpu counter (degraded) until a half-open probe
  /// recovers.
  int isolate = 0;
  /// gputc binary to exec as workers; required when isolate > 0.
  std::string worker_binary;
  /// When >= 0, rejected reports carry this retry hint (retry_after_ms in
  /// the journal line) so shed clients back off instead of hammering. The
  /// serve daemon sets it; batch mode keeps the default -1 and its journal
  /// lines stay byte-identical to earlier releases.
  double reject_retry_after_ms = -1.0;

  /// Preprocessing cache shared across requests (`--prep-cache[-mb]`). The
  /// cache is off by default; either knob turns it on. `prep_cache_mb`
  /// bounds tier-1 resident bytes (0 with a dir set = a default budget);
  /// `prep_cache_dir` adds the durable tier 2, which `--isolate` workers
  /// share — each worker process keeps its own tier 1 but reads/writes the
  /// same artifact directory.
  int64_t prep_cache_mb = 0;
  std::string prep_cache_dir;
};

/// Everything Finish returns: how many reports the service journaled, per
/// outcome and in total, plus drain metadata. The reports themselves are not
/// kept; they stream through BatchService::set_on_report.
struct BatchSummary {
  /// Journaled reports per outcome, indexed by RequestOutcome.
  std::array<int64_t, kNumRequestOutcomes> outcomes = {};
  bool drained = false;
  std::string drain_reason;

  int64_t CountOutcome(RequestOutcome outcome) const {
    return outcomes[static_cast<size_t>(outcome)];
  }
  /// Every journaled report, whatever its outcome.
  int64_t Total() const;
  /// True when every report is kOk or kDegraded.
  bool AllSucceeded() const;
  /// True when no report is kOk or kDegraded.
  bool NoneSucceeded() const;
};

class BatchService {
 public:
  explicit BatchService(BatchServiceOptions options);
  /// Joins all threads; equivalent to Finish() when still running.
  ~BatchService();

  BatchService(const BatchService&) = delete;
  BatchService& operator=(const BatchService&) = delete;

  /// Spawns the worker pool (and, under `isolate`, the supervisor). Call
  /// once, before Submit.
  void Start();

  /// Hands one request to the service. May block under ShedPolicy::kBlock
  /// when the queue is saturated; under the other policies it returns
  /// immediately. Shed or refused requests are journaled as kRejected — the
  /// caller never loses track of a request. Passes the "service.enqueue"
  /// fail point.
  void Submit(BatchRequest request);

  /// Graceful drain: stop admitting (queued-but-unstarted work is journaled
  /// as rejected), let in-flight requests finish within drain_grace_ms, then
  /// cancel the stragglers: they fail CANCELLED "drain grace period expired
  /// (<reason>)". Idempotent; callable from any thread, including a
  /// signal-watcher. Finish() still must be called to join and collect.
  void RequestDrain(std::string reason);

  /// Closes intake, runs the queue dry (or drains), joins every thread and
  /// returns the outcome counts. Call once.
  BatchSummary Finish();

  /// Streaming hook invoked once per journal entry as it is produced, in
  /// journal order (serialized by the journal lock). The service keeps no
  /// report once the hook returns, so this is the only way to see one. Set
  /// before Start.
  void set_on_report(std::function<void(const RequestReport&)> hook) {
    on_report_ = std::move(hook);
  }

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  /// The per-backend breaker board (exposed for tests and reporting).
  BreakerBoard& breakers() { return breakers_; }
  /// The preprocessing cache (null when off).
  PrepCache* prep_cache() const { return prep_cache_.cache.get(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct QueuedRequest {
    BatchRequest request;
    Clock::time_point enqueued_at;
  };

  void WorkerLoop();
  void Process(QueuedRequest queued);
  /// The --isolate execution path: dispatches the request to a supervised
  /// worker subprocess, with cpu failover when the worker breaker is open;
  /// both run under `deadline`. Fills the execution fields of `report` and
  /// calls `finish` exactly once.
  void ProcessIsolated(const BatchRequest& request, Deadline deadline,
                       RequestReport* report, uint64_t parent_span_id,
                       const std::function<void(RequestOutcome, Status)>&
                           finish);
  /// Counts the report's outcome and fires the streaming hook. `parent_span`
  /// (with the report's trace_id) parents the "journal" span when tracing is
  /// on.
  void Journal(const RequestReport& report, uint64_t parent_span = 0);
  RequestReport RejectedReport(const BatchRequest& request, Status reason,
                               double queue_ms) const;
  /// Applies the per-stage outcomes of one executed request to the breaker
  /// board and returns unused half-open probe grants.
  void FeedBreakers(const std::vector<FallbackStage>& allowed,
                    const ExecutionTrace& trace);

  const BatchServiceOptions options_;
  /// The cache built from the options knobs; its pointer is null when off.
  TieredPrepCache prep_cache_;
  WorkQueue<QueuedRequest> queue_;
  AdmissionController admission_;
  BreakerBoard breakers_;
  /// Worker-subprocess pool; null unless options_.isolate > 0.
  std::unique_ptr<Supervisor> supervisor_;

  /// Carried by every in-process execution; RequestDrain arms it to fire
  /// when the grace period ends.
  CancelToken drain_cancel_;

  std::vector<std::thread> workers_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};

  mutable std::mutex journal_mu_;
  // Journaled reports per outcome.
  std::array<int64_t, kNumRequestOutcomes> outcomes_ = {};
  std::function<void(const RequestReport&)> on_report_;

  mutable std::mutex state_mu_;  // Guards drain_reason_.
  std::string drain_reason_;
};

}  // namespace gputc

#endif  // GPUTC_SERVICE_BATCH_SERVICE_H_
