#ifndef GPUTC_SERVICE_SUPERVISOR_H_
#define GPUTC_SERVICE_SUPERVISOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/circuit_breaker.h"
#include "service/worker_process.h"
#include "util/deadline.h"
#include "util/status.h"

namespace gputc {

// Supervision of a pool of `gputc worker` subprocesses. The supervisor owns
// the whole worker lifecycle so crash containment has exactly one authority:
//
//   * dispatch — Execute() leases an idle worker (lazily spawning or
//     respawning one), sends the request, and pumps heartbeat frames until
//     the result arrives;
//   * watchdog — a scanner thread SIGKILLs workers that blow past their
//     request deadline, stop heartbeating (3 missed beats = hung, not
//     slow), or outlive a drain grace period;
//   * restart — a dead worker's slot respawns lazily with exponential
//     backoff plus jitter, so a crash-looping binary cannot peg a CPU
//     fork-bombing;
//   * crash-loop breaker — consecutive worker failures feed the batch
//     service's per-backend CircuitBreaker ("worker"), which trips after
//     the configured threshold and fails requests over to the in-process
//     cpu counter until a half-open probe succeeds;
//   * reaping — every pid the supervisor forks is waitpid()ed by pid
//     (never wait(-1)), so it coexists with other forkers in the process
//     (the crash-test harness) and leaves zero zombies behind.
//
// Worker state machine (per slot):
//
//   dead ──spawn──> idle ──Execute──> busy ──result──> idle
//    ^                                  │
//    └──(crash | hang | rlimit | deadline kill | drain kill)──────┘
//
// A death while busy fails that one in-flight request; every other slot is
// untouched — the containment property the isolation tests pin down.

/// How a worker left the busy state abnormally.
enum class WorkerFailure {
  kCrash,     // Died on its own (signal or exit) while holding a request.
  kHang,      // Watchdog kill: heartbeats stopped flowing.
  kRlimit,    // Died to the RLIMIT_AS cap (abort on failed allocation).
  kDeadline,  // Watchdog kill: request deadline (plus grace) expired.
  kDrain,     // Watchdog kill: drain grace expired with the request running.
};

/// Stable lower-case name ("crash", "hang", "rlimit", "deadline", "drain").
const char* WorkerFailureName(WorkerFailure failure);

struct SupervisorOptions {
  /// gputc binary to exec as `<binary> worker ...`.
  std::string binary;
  /// Pool size (slots; workers themselves spawn lazily).
  int workers = 1;
  /// Per-worker RLIMIT_AS; 0 = unlimited. See WorkerSpawnOptions.
  int64_t rlimit_as_bytes = 0;
  /// Heartbeat cadence workers are spawned with.
  double heartbeat_interval_ms = 25.0;
  /// Consecutive missed beats before the watchdog declares a hang.
  int heartbeat_misses = 3;
  /// Restart backoff: base * 2^(consecutive crashes - 1), capped, ±25%
  /// jitter.
  double backoff_base_ms = 50.0;
  double backoff_cap_ms = 2000.0;
  /// Watchdog scan period.
  double watchdog_period_ms = 10.0;
  /// Crash-loop breaker (not owned; optional). The supervisor is its sole
  /// client for the "worker" backend: Allow() gates every Execute, clean
  /// results record success, crash/hang/rlimit record failure, and
  /// deadline/drain kills cancel the grant — stop conditions say nothing
  /// about worker health (mirroring the in-process IsBackendAttributable
  /// rule).
  CircuitBreaker* breaker = nullptr;
};

/// Which process ran a successful dispatch.
struct WorkerDispatch {
  int pid = 0;
  int worker_index = 0;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Starts the watchdog. Workers spawn lazily on first dispatch.
  Status Start();

  /// Runs one request on a worker, blocking until the result, a worker
  /// death, or `deadline`, and decodes the result frame into `report`'s
  /// execution fields (a frame that will not decode kills the worker like a
  /// crash). What is left of `deadline` when the request is sent replaces
  /// its timeout-ms on the wire (0 = none): the worker's executor enforces
  /// that, and the watchdog's kill is the backstop. Thread-safe; each
  /// concurrent caller leases its own worker.
  /// Failure mapping:
  ///   - breaker open           -> ResourceExhausted (IsWorkerBreakerOpen)
  ///   - crash / hang / rlimit  -> Internal, naming pid and cause; that one
  ///     request fails, other in-flight requests are unaffected
  ///   - deadline               -> DeadlineExceeded
  ///   - drain                  -> Cancelled
  /// A worker that dies *before* reading the request (EPIPE on send) is
  /// retried once on a fresh worker — the request provably never started.
  StatusOr<WorkerDispatch> Execute(WorkerRequest request, Deadline deadline,
                                   RequestReport* report);

  /// Begins draining: new Execute calls fail Cancelled, idle workers are
  /// killed and reaped immediately, and busy workers get until
  /// `grace` before the watchdog kills them too.
  void RequestDrain(Deadline grace);

  /// Kills and reaps every remaining worker and joins the watchdog.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// Live (spawned, un-reaped) workers — the value behind the
  /// gputc_worker_active gauge.
  int ActiveWorkers() const;

 private:
  struct Slot;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// True when `status` is Execute's "circuit breaker open" refusal — the one
/// worker-path failure the batch service fails over to the in-process cpu
/// counter (degraded) instead of failing the request.
bool IsWorkerBreakerOpen(const Status& status);

}  // namespace gputc

#endif  // GPUTC_SERVICE_SUPERVISOR_H_
