#include "service/request_journal.h"

#include <iostream>
#include <utility>

#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/version.h"

namespace gputc {
namespace {

constexpr char kIntentStop[] = "storage: WAL intent append failed";
constexpr char kDoneStop[] = "storage: WAL done append failed";

/// Storage errors keep their text but all map to one exit code.
Status AsInternal(const Status& status) {
  return Status(StatusCode::kInternal, status.ToString());
}

}  // namespace

StatusOr<std::unique_ptr<RequestJournal>> RequestJournal::Open(
    const std::string& wal_dir, bool resume, StoragePolicy policy) {
  std::unique_ptr<RequestJournal> journal(new RequestJournal(wal_dir, policy));
  if (wal_dir.empty()) return journal;
  // Open recovers the segment (verifying every record's CRC and truncating a
  // torn tail); Replay folds the records Open already read, so the log is
  // scanned exactly once no matter how large it has grown.
  StatusOr<WriteAheadLog> opened = WriteAheadLog::Open(wal_dir);
  if (!opened.ok()) return AsInternal(opened.status());
  journal->wal_.emplace(*std::move(opened));
  StatusOr<WalReplay> replayed = journal->wal_->Replay();
  if (!replayed.ok()) return replayed.status();
  if (!resume && !replayed->empty()) {
    return FailedPreconditionError(
        "WAL '" + wal_dir + "' holds " + std::to_string(replayed->done.size()) +
        " done and " + std::to_string(replayed->pending.size()) +
        " pending request(s) from a previous run; pass --resume to continue "
        "it or remove the directory to start over");
  }
  // Each Open appends a version record, so the count of earlier ones is a
  // monotone per-run epoch.
  journal->run_epoch_ = replayed->versions.size();
  if (resume) journal->replay_ = *std::move(replayed);
  // Every run that opens the log stamps its build into it, so a resumed WAL
  // names each version that touched it (replay skips the records).
  const Status stamped = journal->wal_->LogVersion(VersionString());
  if (!stamped.ok()) return AsInternal(stamped);
  return journal;
}

Status RequestJournal::OpenSink(const std::string& journal_path) {
  // The serve loop probes the WAL directory, or the journal's directory when
  // there is no WAL, for disk health; batch never probes.
  StorageHealthMonitor::Options health_options;
  if (wal_.has_value()) {
    health_options.probe_dir = wal_dir_;
  } else if (journal_path != "-") {
    const size_t slash = journal_path.find_last_of('/');
    health_options.probe_dir =
        slash == std::string::npos ? "." : journal_path.substr(0, slash);
  }
  health_ = std::make_unique<StorageHealthMonitor>(health_options);
  if (journal_path == "-") return OkStatus();
  StatusOr<LineLog> opened =
      LineLog::OpenTrunc(journal_path, /*fsync_each=*/wal_.has_value());
  if (!opened.ok()) return AsInternal(opened.status());
  file_.emplace(*std::move(opened));
  return OkStatus();
}

void RequestJournal::Emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  EmitLocked(line);
}

void RequestJournal::EmitReplayed(
    const std::function<bool(const WalDoneRecord&)>& keep) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const WalDoneRecord& record : replay_.done) {
    if (!keep || keep(record)) EmitLocked(record.line);
  }
}

Status RequestJournal::Intent(const std::string& id, const std::string& spec) {
  if (!wal_.has_value() || wal_degraded_.load()) return OkStatus();
  const Status logged = wal_->LogIntent(id, spec);
  if (logged.ok()) return OkStatus();
  std::cerr << "error: " << logged.ToString() << "\n";
  if (!AbsorbWalFault(logged, kIntentStop)) return logged;
  // A crash from here loses the request from the log: exactly the cover
  // this policy trades away.
  std::cerr << "warning: WAL degraded (--wal-policy degrade): admitting "
               "without durable intents; journal lines now carry "
               "\"durable\":false\n";
  return OkStatus();
}

void RequestJournal::Done(const RequestReport& report) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::optional<std::string> line = Commit(report);
  if (!line.has_value()) return;
  {
    // Error codes armed here are no-ops: emission has no error path to
    // inject into. The site exists for crash schedules.
    FailPointScope scope;
    (void)CheckFailPoint("service.journal");
  }
  EmitLocked(*line);
}

void RequestJournal::RejectRecovered(const std::string& id, Status reason) {
  RequestReport report;
  report.id = id;
  report.outcome = RequestOutcome::kRejected;
  report.status = std::move(reason);
  report.trace_id = GenerateTraceId();
  std::lock_guard<std::mutex> lock(mu_);
  const std::optional<std::string> line = Commit(report);
  if (line.has_value()) EmitLocked(*line);
}

std::string RequestJournal::stop_reason() const {
  const char* reason = stop_reason_.load();
  return reason != nullptr ? reason : "";
}

bool RequestJournal::AbsorbWalFault(const Status& fault,
                                    const char* stop_reason) {
  health_->RecordError("wal", fault);
  if (policy_ == StoragePolicy::kStrict) {
    // Fail-stop: a WAL that cannot persist records can no longer back the
    // exactly-once contract, so nothing past the durable prefix is emitted.
    const char* running = nullptr;
    stop_reason_.compare_exchange_strong(running, stop_reason);
    health_->RecordStrictStop(fault.ToString());
    return false;
  }
  wal_degraded_.store(true);
  health_->NoteDegraded("wal", fault.ToString());
  return true;
}

std::optional<std::string> RequestJournal::Commit(const RequestReport& report) {
  if (stopped()) return std::nullopt;
  const std::string line = report.ToJson();
  if (!wal_.has_value()) return line;
  if (!wal_degraded_.load()) {
    // The outcome is durable BEFORE its line is emitted: a crash in between
    // replays this exact line on --resume instead of re-running the request.
    const Status logged =
        wal_->LogDone(report.id, RequestOutcomeName(report.outcome), line);
    if (logged.ok()) return line;
    std::cerr << "error: " << logged.ToString() << "\n";
    if (!AbsorbWalFault(logged, kDoneStop)) return std::nullopt;
    std::cerr << "warning: WAL degraded (--wal-policy degrade): journal "
                 "lines now carry \"durable\":false\n";
  }
  // A crash from here may re-run this request; the line says so.
  RequestReport stamped = report;
  stamped.durable = false;
  return stamped.ToJson();
}

void RequestJournal::EmitLocked(const std::string& line) {
  if (!file_.has_value()) {
    std::cout << line << "\n";
    std::cout.flush();
    return;
  }
  if (!file_degraded_) {
    const Status written = file_->WriteLine(line);
    if (written.ok()) return;
    // Warn once, then mirror this and every later line to stderr: the
    // journal is the operator's record, not the durability backbone. Sticky,
    // because a failed fsync poisons the fd (fsyncgate) and a retry could
    // silently drop the very line it claims to have written.
    file_degraded_ = true;
    health_->RecordError("journal", written);
    health_->NoteDegraded("journal", written.ToString());
    std::cerr << "warning: journal degraded to stderr mirroring: "
              << written.ToString() << "\n";
  }
  std::cerr << line << "\n";
}

}  // namespace gputc
