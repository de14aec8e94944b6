#include "service/overload.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace gputc {

AdaptiveLimiter::AdaptiveLimiter(AdaptiveLimiterOptions options)
    : options_(options), limit_(options.initial_limit) {
  GPUTC_CHECK_GT(options_.min_limit, 0);
  GPUTC_CHECK_GE(options_.max_limit, options_.min_limit);
  GPUTC_CHECK_GT(options_.window, 0);
  GPUTC_CHECK(options_.decrease_factor > 0.0 &&
              options_.decrease_factor < 1.0);
  limit_ = std::clamp(limit_, options_.min_limit, options_.max_limit);
  window_.reserve(static_cast<size_t>(options_.window));
}

Status AdaptiveLimiter::TryAcquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_ >= limit_) {
    return ResourceExhaustedError(
        "adaptive concurrency limit reached (" + std::to_string(inflight_) +
        " in flight, limit " + std::to_string(limit_) + ")");
  }
  ++inflight_;
  return OkStatus();
}

void AdaptiveLimiter::Release(double latency_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_ > 0) --inflight_;
  window_.push_back(latency_ms);
  if (static_cast<int>(window_.size()) >= options_.window) AdaptLocked();
}

void AdaptiveLimiter::ReleaseSlot() {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_ > 0) --inflight_;
}

void AdaptiveLimiter::AdaptLocked() {
  last_window_p99_ = Percentile(window_, 99.0);
  window_.clear();
  if (last_window_p99_ > options_.target_ms) {
    // Multiplicative decrease: shed hard, the tail is already collapsing.
    ++overloaded_windows_;
    limit_ = std::max(
        options_.min_limit,
        static_cast<int>(std::floor(limit_ * options_.decrease_factor)));
  } else {
    // Additive increase: probe for headroom one slot at a time.
    limit_ = std::min(options_.max_limit, limit_ + 1);
  }
}

int64_t AdaptiveLimiter::RetryAfterMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  const double base =
      last_window_p99_ > 0.0 ? last_window_p99_ : options_.target_ms;
  return static_cast<int64_t>(std::clamp(base, 25.0, 5000.0));
}

int AdaptiveLimiter::limit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return limit_;
}

int AdaptiveLimiter::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

int64_t AdaptiveLimiter::overloaded_windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overloaded_windows_;
}

}  // namespace gputc
