#include "service/admission.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace gputc {

Status AdmissionController::Admit(int64_t bytes, const CancelToken& cancel,
                                  Deadline deadline) {
  if (bytes < 0) bytes = 0;
  std::unique_lock<std::mutex> lock(mu_);
  if (budget_bytes_ > 0 && bytes > budget_bytes_) {
    return ResourceExhaustedError(
        "request needs ~" + std::to_string(bytes) +
        " bytes of host memory, over the whole service budget of " +
        std::to_string(budget_bytes_) + " bytes; it can never be admitted");
  }
  const auto fits = [&] {
    return budget_bytes_ <= 0 || in_use_bytes_ + bytes <= budget_bytes_;
  };
  // Wait on a short tick rather than a bare condition so an external
  // CancelToken (which has no hook into our condvar) is noticed promptly.
  while (!fits() && !aborted_ && !cancel.cancelled() && !deadline.expired()) {
    freed_.wait_for(lock, std::chrono::duration<double, std::milli>(std::min(
                              5.0, deadline.remaining_millis())));
  }
  if (aborted_) {
    return CancelledError("admission controller aborted (service draining)");
  }
  if (cancel.cancelled()) {
    return CancelledError("cancelled while waiting for memory admission: " +
                          cancel.reason());
  }
  if (!fits()) {
    return DeadlineExceededError(
        "request deadline expired while waiting for memory admission");
  }
  in_use_bytes_ += bytes;
  ++in_flight_;
  return OkStatus();
}

void AdmissionController::Release(int64_t bytes) {
  if (bytes < 0) bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_use_bytes_ -= bytes;
    if (in_use_bytes_ < 0) in_use_bytes_ = 0;
    if (in_flight_ > 0) --in_flight_;
  }
  freed_.notify_all();
}

void AdmissionController::Abort() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
  }
  freed_.notify_all();
}

int64_t AdmissionController::in_use_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_bytes_;
}

int AdmissionController::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

}  // namespace gputc
