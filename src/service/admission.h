#ifndef GPUTC_SERVICE_ADMISSION_H_
#define GPUTC_SERVICE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/deadline.h"
#include "util/status.h"

namespace gputc {

/// Global memory admission control for concurrent requests: the sum of
/// EstimateRequestHostBytes over every admitted (in-flight) request is kept
/// under a process-wide budget, so N workers cannot collectively commit to
/// more peak host memory than one configured ceiling.
///
/// Semantics:
///  - A request larger than the whole budget can never run: Admit fails fast
///    with ResourceExhausted.
///  - A request that merely does not fit *right now* waits until enough
///    in-flight work releases its reservation (admission is backpressure,
///    not shedding), unless `cancel` fires or Abort() drains the controller,
///    which fail the wait with Cancelled, or its `deadline` passes, which
///    fails it with DeadlineExceeded. A request that fits is admitted
///    whatever its deadline: the executor's first poll reports the expiry.
///  - budget_bytes <= 0 disables the budget; Admit still tracks in-flight
///    counts so drain reporting stays accurate.
///
/// All members are thread-safe.
class AdmissionController {
 public:
  explicit AdmissionController(int64_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Reserves `bytes` against the budget, blocking while full. Every
  /// successful Admit must be paired with exactly one Release(bytes).
  Status Admit(int64_t bytes, const CancelToken& cancel,
               Deadline deadline = Deadline::Infinite());

  /// Returns a reservation made by Admit.
  void Release(int64_t bytes);

  /// Fails all current and future Admit calls with Cancelled (drain).
  void Abort();

  int64_t budget_bytes() const { return budget_bytes_; }
  int64_t in_use_bytes() const;
  int in_flight() const;

 private:
  const int64_t budget_bytes_;
  mutable std::mutex mu_;
  std::condition_variable freed_;
  int64_t in_use_bytes_ = 0;
  int in_flight_ = 0;
  bool aborted_ = false;
};

}  // namespace gputc

#endif  // GPUTC_SERVICE_ADMISSION_H_
