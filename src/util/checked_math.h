#ifndef GPUTC_UTIL_CHECKED_MATH_H_
#define GPUTC_UTIL_CHECKED_MATH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/status.h"

namespace gputc {

// Overflow-checked int64 arithmetic for triangle/support accumulators.
// Signed overflow is UB, so a counter that wraps does not just report a
// wrong number — it invalidates the whole process. Every accumulator that
// sums data-dependent quantities (triangles, wedges, supports) goes through
// these helpers and surfaces OutOfRange instead of wrapping.

/// True when a + b would leave the int64 range.
inline bool AddWouldOverflow(int64_t a, int64_t b) {
  int64_t unused;
  return __builtin_add_overflow(a, b, &unused);
}

/// True when a * b would leave the int64 range.
inline bool MulWouldOverflow(int64_t a, int64_t b) {
  int64_t unused;
  return __builtin_mul_overflow(a, b, &unused);
}

/// a + b clamped to the int64 range instead of wrapping.
inline int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t sum;
  if (!__builtin_add_overflow(a, b, &sum)) return sum;
  return b > 0 ? std::numeric_limits<int64_t>::max()
               : std::numeric_limits<int64_t>::min();
}

/// Saturating accumulator: adds clamp at `limit` and raise a sticky flag the
/// owner converts into an OutOfRange Status via ToStatus(). The limit
/// defaults to int64 max; ExecContext::count_limit lowers it so overflow
/// handling can be exercised without 10^18 triangles.
class CheckedInt64 {
 public:
  CheckedInt64() = default;
  explicit CheckedInt64(int64_t limit) : limit_(limit) {}

  void Add(int64_t delta) {
    if (overflowed_) return;
    int64_t sum;
    if (__builtin_add_overflow(value_, delta, &sum) || sum > limit_) {
      overflowed_ = true;
      value_ = limit_;
      return;
    }
    value_ = sum;
  }

  /// Adds another accumulator's total, saturating if it saturated: summing
  /// per-range partial counts this way overflows exactly when adding every
  /// nonnegative delta to one accumulator would have.
  void Add(const CheckedInt64& other) {
    if (other.overflowed_) {
      overflowed_ = true;
      value_ = limit_;
      return;
    }
    Add(other.value_);
  }

  int64_t value() const { return value_; }
  bool overflowed() const { return overflowed_; }

  /// OkStatus, or OutOfRange naming `what` once an Add saturated.
  Status ToStatus(std::string_view what) const {
    if (!overflowed_) return OkStatus();
    std::string message(what);
    message += " exceeded ";
    message += limit_ == std::numeric_limits<int64_t>::max()
                   ? "the int64 range"
                   : "its configured limit of " + std::to_string(limit_);
    message += "; refusing to wrap";
    return OutOfRangeError(std::move(message));
  }

 private:
  int64_t value_ = 0;
  int64_t limit_ = std::numeric_limits<int64_t>::max();
  bool overflowed_ = false;
};

}  // namespace gputc

#endif  // GPUTC_UTIL_CHECKED_MATH_H_
