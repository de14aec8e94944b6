#ifndef GPUTC_SERVICE_REQUEST_JOURNAL_H_
#define GPUTC_SERVICE_REQUEST_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "service/batch_service.h"
#include "service/storage_health.h"
#include "service/wal.h"
#include "util/durable_file.h"
#include "util/status.h"

namespace gputc {

// The one place that decides what a request's terminal outcome does to the
// write-ahead log and the journal, for `gputc batch` and `gputc serve`:
//
//   * Open recovers and replays the WAL (--wal), refuses a log that holds a
//     previous run unless --resume, and stamps this build's version into it.
//   * OpenSink opens the journal (--journal): stdout, or a LineLog file that
//     degrades to mirroring every line on stderr when its disk fails.
//   * Intent and Done apply --wal-policy. An intent is durable before its
//     request is admitted, a done record before its journal line is emitted.
//     When the WAL cannot persist a record, `strict` stops: stopped() turns
//     true and no further line is emitted, so the journal is exactly the
//     durable prefix. `degrade` keeps going and stamps every line that lost
//     its cover with "durable":false.
//
// The journal never calls back into the service. A front end polls
// stopped() from outside every lock and turns it into a drain.
class RequestJournal {
 public:
  /// Opens the WAL in `wal_dir`; an empty `wal_dir` runs without one. The
  /// error code names the front end's exit code: FailedPrecondition when the
  /// log holds a previous run and `resume` is false, DataLoss when a record
  /// passed its checksum but does not decode, Internal (message: the
  /// underlying status) when storage fails.
  static StatusOr<std::unique_ptr<RequestJournal>> Open(
      const std::string& wal_dir, bool resume, StoragePolicy policy);

  RequestJournal(const RequestJournal&) = delete;
  RequestJournal& operator=(const RequestJournal&) = delete;

  /// Opens the journal sink; call once, before anything is recorded. "-"
  /// streams to stdout; any other path is truncated (resume rewrites it from
  /// the replay, keeping one line per request) and, with a WAL, fsynced per
  /// line. Separate from Open so batch can refuse a manifest on its space
  /// preflight with the previous journal untouched. Internal on failure.
  Status OpenSink(const std::string& journal_path);

  /// Emits one line as-is (the serve version header).
  void Emit(const std::string& line);

  /// Re-emits the stored line of each replayed outcome verbatim, in WAL
  /// order: those `keep` accepts, or all of them when `keep` is empty.
  void EmitReplayed(const std::function<bool(const WalDoneRecord&)>& keep = {});

  /// Makes the intent of `id` (with its manifest line `spec`, when given)
  /// durable before the request is admitted. Non-OK only when this fault
  /// stopped the journal under strict: the request must not be admitted.
  Status Intent(const std::string& id, const std::string& spec = "");

  /// Records one terminal outcome from the service: the WAL done record,
  /// then the "service.journal" fail point (the crash window between WAL
  /// commit and journal emit that verbatim replay exists for), then the
  /// journal line. Records nothing once stopped. Thread-safe; lines come out
  /// in call order.
  void Done(const RequestReport& report);

  /// Resolves a WAL-recovered intent that cannot be re-admitted: a terminal
  /// rejection, WAL-committed and journaled like Done. The service never ran
  /// the request, so it passes no fail point: "service.journal" models the
  /// service's own commit-to-emit window.
  void RejectRecovered(const std::string& id, Status reason);

  /// True once a strict WAL fault stopped the journal.
  bool stopped() const { return stop_reason_.load() != nullptr; }
  /// The drain reason of the stop ("" while running).
  std::string stop_reason() const;

  bool has_wal() const { return wal_.has_value(); }
  /// The previous runs' outcomes and interrupted intents; empty without
  /// --resume.
  const WalReplay& replay() const { return replay_; }
  /// How many runs opened the WAL before this one: folded into serve's
  /// generated request ids so they stay unique across crash/resume cycles.
  uint64_t run_epoch() const { return run_epoch_; }
  /// Fault counters and strict-stop state of the WAL and journal sinks.
  /// Valid after OpenSink.
  StorageHealthMonitor& health() { return *health_; }

 private:
  RequestJournal(std::string wal_dir, StoragePolicy policy)
      : wal_dir_(std::move(wal_dir)), policy_(policy) {}

  /// Applies --wal-policy to a failed WAL append: strict stops with
  /// `stop_reason` and returns false, degrade benches the WAL and returns
  /// true.
  bool AbsorbWalFault(const Status& fault, const char* stop_reason);
  /// The WAL half of a terminal outcome: the done record, then the line to
  /// emit. nullopt once stopped.
  std::optional<std::string> Commit(const RequestReport& report);
  void EmitLocked(const std::string& line);

  const std::string wal_dir_;
  const StoragePolicy policy_;
  std::optional<WriteAheadLog> wal_;
  WalReplay replay_;
  uint64_t run_epoch_ = 0;
  std::unique_ptr<StorageHealthMonitor> health_;
  /// Set once, by the first strict stop, to a drain-reason literal.
  std::atomic<const char*> stop_reason_{nullptr};
  std::atomic<bool> wal_degraded_{false};

  /// Serializes Done's WAL commit + emit and every other emission.
  std::mutex mu_;
  std::optional<LineLog> file_;  // Empty = stdout.
  bool file_degraded_ = false;   // Guarded by mu_.
};

}  // namespace gputc

#endif  // GPUTC_SERVICE_REQUEST_JOURNAL_H_
