// Test helper: a BatchService streams each report through its on_report
// hook and keeps none, so tests that inspect reports collect them here.

#ifndef GPUTC_TESTS_REPORT_LOG_H_
#define GPUTC_TESTS_REPORT_LOG_H_

#include <memory>
#include <mutex>
#include <vector>

#include "service/batch_service.h"

namespace gputc {

/// Copies every report `service` journals, in journal order. Construct it
/// before service.Start(); it takes over the service's on_report hook. The
/// hook shares ownership of the copies, so either object may go first.
class ReportLog {
 public:
  explicit ReportLog(BatchService& service)
      : shared_(std::make_shared<Shared>()) {
    service.set_on_report([shared = shared_](const RequestReport& report) {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->reports.push_back(report);
    });
  }

  /// The reports journaled so far.
  std::vector<RequestReport> reports() const {
    std::lock_guard<std::mutex> lock(shared_->mu);
    return shared_->reports;
  }

 private:
  struct Shared {
    std::mutex mu;
    std::vector<RequestReport> reports;
  };
  std::shared_ptr<Shared> shared_;
};

}  // namespace gputc

#endif  // GPUTC_TESTS_REPORT_LOG_H_
