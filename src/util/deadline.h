#ifndef GPUTC_UTIL_DEADLINE_H_
#define GPUTC_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace gputc {

/// Absolute steady-clock deadline. A default-constructed Deadline never
/// expires, so unconstrained callers pay nothing but a comparison per poll.
class Deadline {
 public:
  Deadline() : when_(Clock::time_point::max()) {}

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` wall-clock milliseconds from now.
  static Deadline AfterMillis(double ms) {
    Deadline d;
    d.when_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  /// A `timeout-ms` budget: expires `ms` from now, or never when `ms` <= 0.
  static Deadline FromTimeoutMs(double ms) {
    return ms > 0.0 ? AfterMillis(ms) : Infinite();
  }

  /// The earlier of two deadlines — how layered budgets compose (e.g. a
  /// request deadline under a service-wide drain deadline).
  static Deadline Earlier(Deadline a, Deadline b) {
    return a.when_ <= b.when_ ? a : b;
  }

  bool is_infinite() const { return when_ == Clock::time_point::max(); }

  bool expired() const { return !is_infinite() && Clock::now() >= when_; }

  /// Milliseconds until expiry: +infinity when infinite, negative once past.
  double remaining_millis() const {
    if (is_infinite()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(when_ - Clock::now())
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point when_;
};

/// Cooperative cancellation handle. Copies share one flag: Cancel() from any
/// thread is visible to every holder at its next poll. Cancellation is
/// one-way and sticky; the first reason wins.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<State>()) {}

  void Cancel(std::string reason = "operation cancelled") {
    Trip(*state_, std::move(reason));
  }

  /// Cancels with `reason` once `deadline` passes: from the first poll after
  /// it, the token reads cancelled. Only the first call arms the token; an
  /// earlier Cancel() keeps its own reason.
  void CancelAt(Deadline deadline, std::string reason) {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->armed.load(std::memory_order_relaxed)) return;
    state_->fire_at = deadline;
    state_->fire_reason = std::move(reason);
    state_->armed.store(true, std::memory_order_release);
  }

  bool cancelled() const {
    if (state_->cancelled.load(std::memory_order_acquire)) return true;
    // fire_at and fire_reason never change once `armed` reads true.
    if (!state_->armed.load(std::memory_order_acquire) ||
        !state_->fire_at.expired()) {
      return false;
    }
    Trip(*state_, state_->fire_reason);
    return true;
  }

  /// The reason of the first cancellation; empty while not cancelled.
  std::string reason() const {
    (void)cancelled();
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->reason;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<bool> armed{false};
    mutable std::mutex mu;
    std::string reason;
    Deadline fire_at;
    std::string fire_reason;
  };

  static void Trip(State& state, std::string reason) {
    {
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.reason.empty()) state.reason = std::move(reason);
    }
    state.cancelled.store(true, std::memory_order_release);
  }

  std::shared_ptr<State> state_;
};

class Tracer;  // obs/trace.h — util stays below the observability layer.

/// The execution envelope the executor threads down into the counters' block
/// loops and A-order's bucket packing: a wall-clock deadline, a cancellation
/// token, and the triangle-accumulator ceiling. A default-constructed
/// context is unconstrained, so legacy entry points run exactly as before.
struct ExecContext {
  Deadline deadline = Deadline::Infinite();
  CancelToken cancel;
  /// Checked accumulators surface OutOfRange once a count would exceed this.
  /// Production leaves it at int64 max; tests lower it to drive the overflow
  /// path on laptop-sized graphs.
  int64_t count_limit = std::numeric_limits<int64_t>::max();

  /// Observability hook (not owned; null = untraced). Pipeline stages open
  /// spans on this tracer as children of `parent_span` under `trace_id` via
  /// obs/trace.h's StartSpan(ctx, name) / WithSpan(ctx, span). Only stages
  /// allocate spans; block/vertex/arc loops keep polling this context and
  /// never touch the tracer — the "poll, don't allocate" hot-path rule.
  Tracer* tracer = nullptr;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;

  /// Cheap boolean poll for inner loops that cannot early-return a Status.
  bool stop_requested() const {
    return cancel.cancelled() || deadline.expired();
  }

  /// OkStatus while the run may continue; Cancelled or DeadlineExceeded
  /// (prefixed with `site`) once it must stop. Poll at block granularity —
  /// the contract the cancellation tests enforce.
  Status CheckContinue(std::string_view site) const {
    if (cancel.cancelled()) {
      return CancelledError(cancel.reason()).WithContext(site);
    }
    if (deadline.expired()) {
      return DeadlineExceededError("wall-clock deadline expired")
          .WithContext(site);
    }
    return OkStatus();
  }
};

}  // namespace gputc

#endif  // GPUTC_UTIL_DEADLINE_H_
