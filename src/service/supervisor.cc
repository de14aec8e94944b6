#include "service/supervisor.h"

#include <errno.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "obs/metrics.h"

namespace gputc {
namespace {

constexpr char kBreakerOpenMessage[] =
    "worker circuit breaker open; backend benched";

/// Slack past a request's deadline before its dispatch thread SIGKILLs the
/// worker: the worker self-enforces the deadline through its executor, so
/// the kill only fires when that cooperative path is itself wedged.
constexpr double kDeadlineGraceMs = 100.0;

/// Missed heartbeats after which a silent worker counts as hung, not slow.
constexpr int kHeartbeatMisses = 3;

void RecordRestart(WorkerFailure reason) {
  MetricsRegistry::Global()
      .GetCounter("gputc_worker_restarts_total",
                  "Worker subprocess deaths requiring a restart, by cause",
                  {{"reason", WorkerFailureName(reason)}})
      .Increment();
}

Gauge& ActiveGauge() {
  return MetricsRegistry::Global().GetGauge(
      "gputc_worker_active", "Live (spawned, un-reaped) worker subprocesses");
}

/// Deterministic per-slot jitter source (no global RNG state: restarts must
/// not perturb anything else's random sequence).
uint64_t XorShift(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

}  // namespace

const char* WorkerFailureName(WorkerFailure failure) {
  switch (failure) {
    case WorkerFailure::kCrash:
      return "crash";
    case WorkerFailure::kHang:
      return "hang";
    case WorkerFailure::kRlimit:
      return "rlimit";
    case WorkerFailure::kDeadline:
      return "deadline";
    case WorkerFailure::kDrain:
      return "drain";
  }
  return "unknown";
}

bool IsWorkerBreakerOpen(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message().find(kBreakerOpenMessage) != std::string::npos;
}

struct Supervisor::Slot {
  enum class State { kDead, kSpawning, kIdle, kBusy };

  int index = 0;
  State state = State::kDead;
  std::unique_ptr<WorkerProcess> proc;

  // Restart bookkeeping.
  int consecutive_crashes = 0;
  Deadline respawn_at = Deadline::AfterMillis(0);  // Backoff gate.
  uint64_t jitter_state = 0;
};

struct Supervisor::Impl {
  explicit Impl(SupervisorOptions opts) : options(std::move(opts)) {}

  SupervisorOptions options;

  mutable std::mutex mu;
  std::condition_variable cv;
  std::vector<Slot> slots;
  bool draining = false;
  Deadline drain_deadline;
  bool started = false;
  bool stopping = false;

  double BackoffMs(Slot* slot) {
    double backoff = options.backoff_base_ms;
    for (int i = 1; i < slot->consecutive_crashes; ++i) {
      backoff *= 2.0;
      if (backoff >= options.backoff_cap_ms) break;
    }
    backoff = std::min(backoff, options.backoff_cap_ms);
    // ±25% jitter so a fleet of crashed slots does not respawn in lockstep.
    const double unit =
        static_cast<double>(XorShift(&slot->jitter_state) % 1000) / 1000.0;
    return backoff * (0.75 + 0.5 * unit);
  }

  /// Marks a busy/idle worker dead and reaps it. Caller holds `mu` and has
  /// already sent the process SIGKILL. Returns the waitpid status (0 when
  /// unavailable). Restart accounting (metric, breaker) stays with the
  /// caller, which knows the final classification.
  int ReapLocked(Slot* slot) {
    int wait_status = 0;
    if (slot->proc != nullptr) {
      const int pid = slot->proc->pid();
      // Blocking waitpid is safe: the pid is known dead or freshly
      // SIGKILLed, so the kernel resolves this promptly.
      while (::waitpid(pid, &wait_status, 0) < 0 && errno == EINTR) {
      }
      slot->proc.reset();
      ActiveGauge().Add(-1.0);
    }
    slot->state = Slot::State::kDead;
    slot->consecutive_crashes += 1;
    slot->respawn_at = Deadline::AfterMillis(BackoffMs(slot));
    cv.notify_all();
    return wait_status;
  }

  /// The drain grace, read under `mu`; infinite until a drain begins.
  Deadline DrainDeadline() {
    std::lock_guard<std::mutex> lock(mu);
    return drain_deadline;
  }

  /// Leases a slot for one request: an idle worker if one exists, else a
  /// dead slot past its backoff (spawned here), else waits. Caller must
  /// hold no locks. On success the slot is kBusy and owned by the caller.
  StatusOr<Slot*> AcquireSlot(Deadline deadline) {
    std::unique_lock<std::mutex> lock(mu);
    int spawn_failures = 0;
    Status last_spawn_error;
    for (;;) {
      if (draining || stopping) {
        return CancelledError("supervisor draining; dispatch refused");
      }
      if (deadline.expired()) {
        return DeadlineExceededError("no worker slot before the deadline");
      }
      // Prefer a warm worker.
      for (Slot& slot : slots) {
        if (slot.state == Slot::State::kIdle && slot.proc != nullptr) {
          slot.state = Slot::State::kBusy;
          return &slot;
        }
      }
      // Else respawn a dead slot whose backoff has passed.
      Slot* spawnable = nullptr;
      for (Slot& slot : slots) {
        if (slot.state == Slot::State::kDead && slot.respawn_at.expired()) {
          spawnable = &slot;
          break;
        }
      }
      if (spawnable != nullptr) {
        spawnable->state = Slot::State::kSpawning;
        lock.unlock();
        WorkerSpawnOptions spawn;
        spawn.binary = options.binary;
        spawn.rlimit_as_bytes = options.rlimit_as_bytes;
        StatusOr<WorkerProcess> proc = WorkerProcess::Spawn(spawn);
        lock.lock();
        if (!proc.ok()) {
          spawnable->state = Slot::State::kDead;
          spawnable->consecutive_crashes += 1;
          spawnable->respawn_at = Deadline::AfterMillis(BackoffMs(spawnable));
          cv.notify_all();
          last_spawn_error = proc.status();
          if (++spawn_failures >= 3) {
            return last_spawn_error.WithContext(
                "worker spawn failed " + std::to_string(spawn_failures) +
                " times");
          }
          continue;
        }
        if (draining || stopping) {
          // Drain raced the spawn: this worker must not outlive the pool.
          proc->Kill();
          int ignored = 0;
          while (::waitpid(proc->pid(), &ignored, 0) < 0 && errno == EINTR) {
          }
          spawnable->state = Slot::State::kDead;
          return CancelledError("supervisor draining; dispatch refused");
        }
        spawnable->proc =
            std::make_unique<WorkerProcess>(*std::move(proc));
        ActiveGauge().Add(1.0);
        spawnable->state = Slot::State::kBusy;
        return spawnable;
      }
      // Nothing available: wait for a slot to change (every change notifies
      // `cv`), the next respawn or the deadline, whichever comes first.
      Deadline wake = deadline;
      for (const Slot& slot : slots) {
        if (slot.state == Slot::State::kDead) {
          wake = Deadline::Earlier(wake, slot.respawn_at);
        }
      }
      if (wake.is_infinite()) {
        cv.wait(lock);
      } else {
        cv.wait_for(lock, std::chrono::duration<double, std::milli>(
                              std::max(1.0, wake.remaining_millis())));
      }
    }
  }

  /// Returns a leased worker to the pool after a clean result.
  void Release(Slot* slot) {
    std::lock_guard<std::mutex> lock(mu);
    slot->consecutive_crashes = 0;
    if (draining || stopping) {
      // Drain reaps on the way in: a worker finishing its request during
      // drain is killed here, not leaked.
      slot->proc->Kill();
      ReapLocked(slot);
      return;
    }
    slot->state = Slot::State::kIdle;
    cv.notify_all();
  }

  /// Reaps and accounts a worker its dispatch thread has SIGKILLed for
  /// `reason`, whether or not it had died first; a kCrash by SIGABRT under
  /// the rlimit counts as kRlimit. Returns the error Execute reports for
  /// the in-flight request.
  Status HandleDeath(Slot* slot, WorkerFailure reason,
                     const Status& read_error) {
    std::lock_guard<std::mutex> lock(mu);
    const int pid = slot->proc != nullptr ? slot->proc->pid() : 0;
    const int wait_status = ReapLocked(slot);
    std::string death;
    if (WIFSIGNALED(wait_status)) {
      death = std::string("signal ") + strsignal(WTERMSIG(wait_status));
      // A worker under RLIMIT_AS that over-allocates dies by abort (failed
      // allocation) — attribute those to the memory cap, not a plain crash.
      if (reason == WorkerFailure::kCrash && options.rlimit_as_bytes > 0 &&
          WTERMSIG(wait_status) == SIGABRT) {
        reason = WorkerFailure::kRlimit;
      }
    } else if (WIFEXITED(wait_status)) {
      death = "exit status " + std::to_string(WEXITSTATUS(wait_status));
    } else {
      death = "unknown wait status";
    }
    RecordRestart(reason);
    const std::string detail = "worker pid " + std::to_string(pid) + " (" +
                               death + "): " + read_error.message();
    switch (reason) {
      case WorkerFailure::kDeadline:
        FeedBreaker(/*success=*/false, /*attributable=*/false);
        return DeadlineExceededError(
            "request deadline expired; " + detail);
      case WorkerFailure::kDrain:
        FeedBreaker(/*success=*/false, /*attributable=*/false);
        return CancelledError("drain grace expired; " + detail);
      case WorkerFailure::kHang:
        FeedBreaker(/*success=*/false, /*attributable=*/true);
        return InternalError("worker hung (heartbeats stopped); " + detail);
      case WorkerFailure::kRlimit:
        FeedBreaker(/*success=*/false, /*attributable=*/true);
        return InternalError("worker exceeded its memory cap; " + detail);
      case WorkerFailure::kCrash:
      default:
        FeedBreaker(/*success=*/false, /*attributable=*/true);
        return InternalError("worker crashed; " + detail);
    }
  }

  /// Resolves the breaker grant taken at Execute entry. Stop conditions
  /// (deadline, drain) cancel the probe instead of recording: they say
  /// nothing about worker health.
  void FeedBreaker(bool success, bool attributable) {
    if (options.breaker == nullptr) return;
    if (success) {
      options.breaker->RecordSuccess();
    } else if (attributable) {
      options.breaker->RecordFailure();
    } else {
      options.breaker->CancelProbe();
    }
  }
};

Supervisor::Supervisor(SupervisorOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  impl_->slots.resize(
      static_cast<size_t>(std::max(1, impl_->options.workers)));
  for (size_t i = 0; i < impl_->slots.size(); ++i) {
    impl_->slots[i].index = static_cast<int>(i);
    impl_->slots[i].jitter_state = 0x9e3779b97f4a7c15ull + i;
  }
}

Supervisor::~Supervisor() { Shutdown(); }

Status Supervisor::Start() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->started) {
    return FailedPreconditionError("Supervisor::Start called twice");
  }
  if (impl_->options.binary.empty()) {
    return InvalidArgumentError("Supervisor needs a worker binary path");
  }
  // A worker can die with our request half-written into its pipe; that must
  // surface as EPIPE on the write, not kill the whole service.
  ::signal(SIGPIPE, SIG_IGN);
  impl_->started = true;
  return OkStatus();
}

StatusOr<WorkerDispatch> Supervisor::Execute(WorkerRequest request,
                                             Deadline deadline,
                                             RequestReport* report) {
  Impl& impl = *impl_;
  if (impl.options.breaker != nullptr && !impl.options.breaker->Allow()) {
    return ResourceExhaustedError(kBreakerOpenMessage);
  }
  // From here every return path resolves the breaker grant exactly once
  // (RecordSuccess / RecordFailure / CancelProbe via FeedBreaker).

  // One silent retry: a worker that dies before reading the request (EPIPE
  // on send) provably never started it, so a fresh worker can take it with
  // no at-most-once concerns. Anything after the send is never retried —
  // the worker may have had side effects and, for the batch service, a
  // poisoned request must fail (not bounce across the pool killing every
  // worker).
  for (int send_attempt = 0;; ++send_attempt) {
    StatusOr<Slot*> leased = impl.AcquireSlot(deadline);
    if (!leased.ok()) {
      const StatusCode code = leased.status().code();
      impl.FeedBreaker(/*success=*/false,
                       /*attributable=*/code != StatusCode::kCancelled &&
                           code != StatusCode::kDeadlineExceeded);
      return leased.status().WithContext("Supervisor::Execute");
    }
    Slot* slot = *leased;
    const int pid = slot->proc->pid();

    // What is left of the budget, kept positive: 0 would mean no deadline.
    request.request.timeout_ms =
        deadline.is_infinite() ? 0.0
                               : std::max(1e-3, deadline.remaining_millis());
    const Status sent = slot->proc->SendRequest(request);
    if (!sent.ok()) {
      slot->proc->Kill();
      const Status death = impl.HandleDeath(slot, WorkerFailure::kCrash, sent);
      if (sent.code() == StatusCode::kFailedPrecondition &&
          send_attempt == 0) {
        // The breaker grant was resolved by HandleDeath; take a new one for
        // the retry so accounting stays 1:1 with grants.
        if (impl.options.breaker != nullptr &&
            !impl.options.breaker->Allow()) {
          return ResourceExhaustedError(kBreakerOpenMessage);
        }
        continue;
      }
      return death.WithContext("request '" + request.request.id +
                               "' failed before dispatch");
    }

    // Pump frames until the result. This thread is the worker's only
    // watchdog: each wait for a frame ends by the earliest of the request
    // deadline plus grace, the drain grace and three missed beats. A wait
    // that ends without one kills the worker, named by the drain grace as
    // read after the wait, then the request deadline, then silence (hang).
    const Deadline kill_at =
        deadline.is_infinite()
            ? Deadline::Infinite()
            : Deadline::AfterMillis(deadline.remaining_millis() +
                                    kDeadlineGraceMs);
    for (;;) {
      const Deadline beats_due =
          Deadline::AfterMillis(kHeartbeatMisses * kHeartbeatIntervalMs);
      StatusOr<WireFrame> frame = ReadFrame(
          slot->proc->response_fd(),
          Deadline::Earlier(Deadline::Earlier(kill_at, beats_due),
                            impl.DrainDeadline()));
      if (frame.ok() && frame->type == kFrameHeartbeat) continue;
      // EOF (FailedPrecondition) or a torn frame (DataLoss) means the worker
      // died mid-request. A torn result frame is a *crash*, not data loss —
      // nothing of the partial frame is trusted or surfaced.
      WorkerFailure reason = WorkerFailure::kCrash;
      Status failure = frame.status();
      if (frame.ok()) {
        failure = frame->type == kFrameResult
                      ? DecodeWorkerResult(frame->body, report)
                      : InternalError(std::string("unexpected frame type '") +
                                      frame->type + "'");
        if (failure.ok()) {
          const WorkerDispatch dispatch{pid, slot->index};
          impl.Release(slot);
          // A clean protocol round-trip is worker health, whatever the
          // request-level status says: an injected per-request fault must
          // not bench the pool.
          impl.FeedBreaker(/*success=*/true, /*attributable=*/true);
          return dispatch;
        }
        // A frame that passed its checksum but does not decode means the
        // two ends disagree about the protocol: a crash, and nothing further
        // from this worker is trusted.
      } else if (failure.code() == StatusCode::kDeadlineExceeded) {
        reason = impl.DrainDeadline().expired() ? WorkerFailure::kDrain
                 : kill_at.expired()            ? WorkerFailure::kDeadline
                                                : WorkerFailure::kHang;
      }
      // Killing a worker that already died changes nothing: its pid stays
      // ours until HandleDeath reaps it.
      slot->proc->Kill();
      return impl.HandleDeath(slot, reason, failure)
          .WithContext("request '" + request.request.id + "'");
    }
  }
}

void Supervisor::RequestDrain(Deadline grace) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mu);
  impl.draining = true;
  impl.drain_deadline = grace;
  // Idle workers have no work to finish: kill and reap on the spot so the
  // drain path leaks nothing even if Shutdown never runs.
  for (Slot& slot : impl.slots) {
    if (slot.state == Slot::State::kIdle && slot.proc != nullptr) {
      slot.proc->Kill();
      impl.ReapLocked(&slot);
    }
    // A busy worker's dispatch thread reads `grace` before its next wait,
    // and Release or HandleDeath reaps the worker when its dispatch ends.
  }
  impl.cv.notify_all();
}

void Supervisor::Shutdown() {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mu);
  if (impl.stopping) return;
  impl.stopping = true;
  impl.cv.notify_all();
  for (Slot& slot : impl.slots) {
    if (slot.proc != nullptr) {
      slot.proc->Kill();
      impl.ReapLocked(&slot);
    }
  }
}

int Supervisor::ActiveWorkers() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  int live = 0;
  for (const Slot& slot : impl_->slots) {
    if (slot.proc != nullptr) ++live;
  }
  return live;
}

}  // namespace gputc
