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

/// Slack past a request's deadline before the watchdog SIGKILLs: the worker
/// self-enforces the deadline through its executor, so the kill only fires
/// when that cooperative path is itself wedged.
constexpr double kDeadlineGraceMs = 100.0;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

  // Busy bookkeeping (guarded by Impl::mu).
  Deadline hard_deadline;   // Request deadline + grace; watchdog backstop.
  double last_beat_ms = 0;  // Last frame (any type) from this worker.
  bool killed_by_watchdog = false;
  WorkerFailure kill_reason = WorkerFailure::kCrash;

  // Restart bookkeeping.
  int consecutive_crashes = 0;
  double next_spawn_ms = 0;  // Earliest respawn (steady ms); backoff gate.
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

  std::thread watchdog;

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
  /// already ensured the process is dead or dying (SIGKILL sent or EOF
  /// seen). Returns the waitpid status (0 when unavailable). Restart
  /// accounting (metric, breaker) stays with the caller, which knows the
  /// final classification.
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
    slot->next_spawn_ms = NowMs() + BackoffMs(slot);
    cv.notify_all();
    return wait_status;
  }

  void WatchdogLoop() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stopping) {
      cv.wait_for(lock, std::chrono::duration<double, std::milli>(
                            options.watchdog_period_ms));
      if (stopping) break;
      const double now = NowMs();
      const double stale_ms =
          options.heartbeat_interval_ms * options.heartbeat_misses;
      for (Slot& slot : slots) {
        if (slot.state != Slot::State::kBusy || slot.killed_by_watchdog ||
            slot.proc == nullptr) {
          continue;
        }
        WorkerFailure reason;
        if (draining && drain_deadline.expired()) {
          reason = WorkerFailure::kDrain;
        } else if (slot.hard_deadline.expired()) {
          reason = WorkerFailure::kDeadline;
        } else if (now - slot.last_beat_ms > stale_ms) {
          reason = WorkerFailure::kHang;
        } else {
          continue;
        }
        // Flag first, kill second: the dispatch thread blocked on this
        // worker's pipe observes EOF only after the SIGKILL, so it always
        // sees the reason.
        slot.killed_by_watchdog = true;
        slot.kill_reason = reason;
        slot.proc->Kill();
      }
    }
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
          LeaseLocked(&slot, deadline);
          return &slot;
        }
      }
      // Else respawn a dead slot whose backoff has passed.
      const double now = NowMs();
      Slot* spawnable = nullptr;
      for (Slot& slot : slots) {
        if (slot.state == Slot::State::kDead && now >= slot.next_spawn_ms) {
          spawnable = &slot;
          break;
        }
      }
      if (spawnable != nullptr) {
        spawnable->state = Slot::State::kSpawning;
        lock.unlock();
        WorkerSpawnOptions spawn;
        spawn.binary = options.binary;
        spawn.heartbeat_interval_ms = options.heartbeat_interval_ms;
        spawn.rlimit_as_bytes = options.rlimit_as_bytes;
        StatusOr<WorkerProcess> proc = WorkerProcess::Spawn(spawn);
        lock.lock();
        if (!proc.ok()) {
          spawnable->state = Slot::State::kDead;
          spawnable->consecutive_crashes += 1;
          spawnable->next_spawn_ms = NowMs() + BackoffMs(spawnable);
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
        LeaseLocked(spawnable, deadline);
        return spawnable;
      }
      // Nothing available: wait for an idle worker, an expired backoff, or
      // the deadline — whichever is soonest.
      double wait_ms = options.watchdog_period_ms;
      for (const Slot& slot : slots) {
        if (slot.state == Slot::State::kDead) {
          wait_ms = std::min(wait_ms, std::max(1.0, slot.next_spawn_ms - now));
        }
      }
      wait_ms = std::min(wait_ms, std::max(1.0, deadline.remaining_millis()));
      cv.wait_for(lock, std::chrono::duration<double, std::milli>(wait_ms));
    }
  }

  void LeaseLocked(Slot* slot, Deadline deadline) {
    slot->state = Slot::State::kBusy;
    slot->hard_deadline =
        deadline.is_infinite()
            ? (draining ? drain_deadline : Deadline::Infinite())
            : Deadline::AfterMillis(deadline.remaining_millis() +
                                    kDeadlineGraceMs);
    slot->last_beat_ms = NowMs();
    slot->killed_by_watchdog = false;
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

  /// Classifies and accounts a worker death observed by its dispatch
  /// thread. Returns the error Execute reports for the in-flight request.
  Status HandleDeath(Slot* slot, const Status& read_error) {
    std::lock_guard<std::mutex> lock(mu);
    const int pid = slot->proc != nullptr ? slot->proc->pid() : 0;
    WorkerFailure reason = slot->killed_by_watchdog ? slot->kill_reason
                                                    : WorkerFailure::kCrash;
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
  impl_->watchdog = std::thread([this] { impl_->WatchdogLoop(); });
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
      const Status death = impl.HandleDeath(slot, sent);
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

    // Pump frames until the result. Heartbeats refresh the watchdog clock;
    // the hard read deadline (request deadline + 2x grace) only fires if
    // the watchdog itself is wedged.
    Deadline read_deadline =
        deadline.is_infinite()
            ? Deadline::Infinite()
            : Deadline::AfterMillis(deadline.remaining_millis() +
                                    2.0 * kDeadlineGraceMs);
    for (;;) {
      StatusOr<WireFrame> frame =
          ReadFrameWithDeadline(slot->proc->response_fd(), read_deadline);
      if (!frame.ok()) {
        if (frame.status().code() == StatusCode::kDeadlineExceeded) {
          // Watchdog missed it (or is configured off): kill here, then
          // classify through the same death path.
          {
            std::lock_guard<std::mutex> lock(impl.mu);
            if (!slot->killed_by_watchdog) {
              slot->killed_by_watchdog = true;
              slot->kill_reason = WorkerFailure::kDeadline;
            }
            slot->proc->Kill();
          }
          // Drain the pipe to EOF so classification sees the final state.
          Status death = impl.HandleDeath(
              slot, DeadlineExceededError("no result before the deadline"));
          return death.WithContext("request '" + request.request.id + "'");
        }
        // EOF (FailedPrecondition) or a torn frame (DataLoss): the worker
        // died mid-request. A torn result frame is a *crash*, not data
        // loss — nothing of the partial frame is trusted or surfaced.
        Status death = impl.HandleDeath(slot, frame.status());
        return death.WithContext("request '" + request.request.id + "'");
      }
      if (frame->type == kFrameHeartbeat) {
        std::lock_guard<std::mutex> lock(impl.mu);
        slot->last_beat_ms = NowMs();
        continue;
      }
      if (frame->type != kFrameResult) {
        {
          std::lock_guard<std::mutex> lock(impl.mu);
          slot->proc->Kill();
        }
        Status death = impl.HandleDeath(
            slot, InternalError(std::string("unexpected frame type '") +
                                frame->type + "'"));
        return death.WithContext("request '" + request.request.id + "'");
      }
      const Status decoded = DecodeWorkerResult(frame->body, report);
      if (!decoded.ok()) {
        // A frame that passed its checksum but does not decode means the
        // two ends disagree about the protocol — kill and classify as a
        // crash rather than trusting anything further from this worker.
        {
          std::lock_guard<std::mutex> lock(impl.mu);
          slot->proc->Kill();
        }
        Status death = impl.HandleDeath(slot, decoded);
        return death.WithContext("request '" + request.request.id + "'");
      }
      const WorkerDispatch dispatch{pid, slot->index};
      impl.Release(slot);
      // A clean protocol round-trip is worker health, whatever the
      // request-level status says: an injected per-request fault must not
      // bench the pool.
      impl.FeedBreaker(/*success=*/true, /*attributable=*/true);
      return dispatch;
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
    // Busy workers: the watchdog enforces `grace`, and Release/HandleDeath
    // reap them when their dispatch resolves.
    if (slot.state == Slot::State::kBusy && !slot.hard_deadline.expired()) {
      slot.hard_deadline = Deadline::Earlier(slot.hard_deadline, grace);
    }
  }
  impl.cv.notify_all();
}

void Supervisor::Shutdown() {
  Impl& impl = *impl_;
  {
    std::lock_guard<std::mutex> lock(impl.mu);
    if (impl.stopping) return;
    impl.stopping = true;
    impl.cv.notify_all();
  }
  if (impl.watchdog.joinable()) impl.watchdog.join();
  std::lock_guard<std::mutex> lock(impl.mu);
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
