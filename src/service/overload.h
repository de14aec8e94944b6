#ifndef GPUTC_SERVICE_OVERLOAD_H_
#define GPUTC_SERVICE_OVERLOAD_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace gputc {

// Adaptive concurrency limiting for the serve daemon: an AIMD controller on
// observed tail latency, layered in FRONT of the queue bound and the
// memory-based admission gate. The queue bound protects the process from
// unbounded buffering and the admission gate from memory blowup, but
// neither notices the earlier failure mode of an overloaded service:
// latency collapse while every request still "fits". This limiter does —
// when the p99 of recent request latencies exceeds the target,
// the concurrency limit multiplicatively shrinks (shedding load before the
// service thrashes); while latency stays healthy it creeps back up one slot
// per window (probing for capacity). The classic TCP congestion-control
// shape, applied to request concurrency.

/// Tuning of one AdaptiveLimiter.
struct AdaptiveLimiterOptions {
  /// Concurrency limit bounds and the starting point. The limit always
  /// stays within [min_limit, max_limit].
  int initial_limit = 4;
  int min_limit = 1;
  int max_limit = 64;
  /// Latency target: adapt on each window's p99 crossing `target_ms`.
  double target_ms = 1000.0;
  /// Completions per adaptation window. Small enough to react within a few
  /// dozen requests, large enough that one outlier is not a regime change.
  int window = 32;
  /// Multiplicative decrease factor on an unhealthy window.
  double decrease_factor = 0.7;
};

/// Thread-safe AIMD concurrency limiter. Acquire before submitting a
/// request, Release with the observed latency when its terminal outcome
/// arrives (including failures — a failing service is usually also a slow
/// one, and its latencies are exactly the signal).
class AdaptiveLimiter {
 public:
  explicit AdaptiveLimiter(AdaptiveLimiterOptions options);

  /// Claims one concurrency slot. ResourceExhausted when the request count
  /// in flight has reached the current adaptive limit — the caller must
  /// reject with RetryAfterMs(), not queue.
  Status TryAcquire();

  /// Returns the slot and feeds the latency sample to the controller.
  void Release(double latency_ms);

  /// Returns the slot WITHOUT a latency sample — for requests that claimed a
  /// slot but never executed (shed at a later gate, WAL append failure).
  /// Feeding those a fake 0 ms sample would drag the window p99 down during
  /// sustained overload and push the limit up exactly when it should shrink.
  void ReleaseSlot();

  /// How long a rejected client should back off before retrying: the last
  /// observed window p99 (clamped to [25ms, 5s]), or the target while no
  /// window has completed. Monotone in observed load, so a storm of
  /// rejected clients spreads out instead of thundering straight back.
  int64_t RetryAfterMs() const;

  int limit() const;
  int inflight() const;
  /// Windows that ended unhealthy (p99 over target) since construction.
  int64_t overloaded_windows() const;

 private:
  void AdaptLocked();

  const AdaptiveLimiterOptions options_;
  mutable std::mutex mu_;
  int limit_;
  int inflight_ = 0;
  std::vector<double> window_;
  double last_window_p99_ = -1.0;
  int64_t overloaded_windows_ = 0;
};

}  // namespace gputc

#endif  // GPUTC_SERVICE_OVERLOAD_H_
