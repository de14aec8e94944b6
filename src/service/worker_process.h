#ifndef GPUTC_SERVICE_WORKER_PROCESS_H_
#define GPUTC_SERVICE_WORKER_PROCESS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "service/manifest.h"
#include "util/deadline.h"
#include "util/status.h"

namespace gputc {

// Process isolation primitives for the batch service: one WorkerProcess is a
// fork/exec'd `gputc worker` subprocess speaking a length-prefixed,
// CRC32C-checked frame protocol over two pipes. The framing is the
// durable_file frame (EncodeFrame / DecodeFrameHeader) the segment log
// stores its records in, so a torn frame — a worker SIGKILLed mid-write — is detected the
// same way a torn log tail is: the checksum fails or the bytes run out, and
// nothing after the tear is trusted. The first payload byte is the frame
// type:
//
//   'Q'  request   (supervisor -> worker)  body = EncodeWorkerRequest
//   'H'  heartbeat (worker -> supervisor)  body = stage label ("tick",
//        "validate", "Hu/base", ...) — emitted on a timer and per executor
//        stage, so the supervisor can tell slow (beats flowing) from hung
//        (beats stopped)
//   'R'  result    (worker -> supervisor)  body = EncodeWorkerResult
//
// One counting request per dispatch: the worker stays alive between
// requests (blocked reading its request pipe) but never interleaves two.

/// Frame type tags.
inline constexpr char kFrameRequest = 'Q';
inline constexpr char kFrameHeartbeat = 'H';
inline constexpr char kFrameResult = 'R';

/// One decoded frame.
struct WireFrame {
  char type = 0;
  std::string body;
};

/// Writes one framed message ([len][crc][type+body], fully, no fsync — pipes
/// have no durability). Passes the "worker.response.torn" fail point between
/// the two halves of a result frame, so a crash armed there leaves a
/// genuinely torn frame on the pipe for the supervisor to classify.
Status WriteFrame(int fd, char type, std::string_view body);

/// Blocking read of one frame. FailedPrecondition on a clean EOF at a frame
/// boundary, DataLoss on a torn or checksum-failing frame (the peer died
/// mid-write, or wrote garbage).
StatusOr<WireFrame> ReadFrame(int fd);

/// Reads one frame, polling until `deadline` (DeadlineExceeded on expiry).
/// `poll_slice_ms` bounds the latency of noticing the deadline.
StatusOr<WireFrame> ReadFrameWithDeadline(int fd, Deadline deadline,
                                          int poll_slice_ms = 10);

/// Everything a worker needs to execute one request, serializable onto the
/// wire: the request with its timeout and fallback chain already resolved
/// from the batch defaults, plus the tier-2 preprocessing-cache directory
/// shared with the supervisor (empty = uncached). The worker builds its own
/// in-process tier 1 on first use and keeps it across requests;
/// `prep_cache_mb` bounds it (0 = default).
struct WorkerRequest {
  BatchRequest request;
  std::string prep_cache_dir;
  int64_t prep_cache_mb = 0;
};

/// Line-oriented wire codecs. Encode/Decode round-trip exactly; Decode is
/// strict (unknown keys and malformed numbers are InvalidArgument) because
/// both ends are the same binary — a decode failure means a torn or foreign
/// payload, not a version skew to paper over. The result codec carries a
/// report's execution fields: status, stage, variant, triangles, attempts,
/// trace and materialize_ms; DecodeWorkerResult leaves `*report` untouched
/// when it fails.
std::string EncodeWorkerRequest(const WorkerRequest& request);
StatusOr<WorkerRequest> DecodeWorkerRequest(std::string_view body);
std::string EncodeWorkerResult(const RequestReport& report);
Status DecodeWorkerResult(std::string_view body, RequestReport* report);

/// Spawn tuning for one worker subprocess.
struct WorkerSpawnOptions {
  /// Absolute path of the gputc binary to exec.
  std::string binary;
  /// Heartbeat cadence the worker is told to beat at.
  double heartbeat_interval_ms = 25.0;
  /// When > 0, the child calls setrlimit(RLIMIT_AS, this) before exec, so a
  /// worker that over-allocates dies alone instead of OOMing the service.
  /// Ignored in sanitizer builds (ASan's shadow reservation needs unlimited
  /// address space).
  int64_t rlimit_as_bytes = 0;
};

/// A live `gputc worker` subprocess: the pid plus the two pipe ends the
/// supervisor talks through. Move-only; the destructor closes the pipes but
/// does NOT kill or reap — the supervisor owns lifecycle (kill, waitpid) so
/// zombie accounting lives in exactly one place.
class WorkerProcess {
 public:
  /// Forks and execs `binary worker --request-fd 3 --response-fd 4 ...`.
  /// Passes the "worker.spawn" fail point before forking, and "worker.exec"
  /// before exec — the latter swaps in a nonexistent binary path so the
  /// child's real execve-failure path (errno over a CLOEXEC status pipe) is
  /// what reports the error. The child inherits the parent's environment
  /// (including any ambient GPUTC_FAILPOINTS), redirects stdout to /dev/null
  /// (the service's stdout may be the journal stream), keeps stderr, and
  /// closes every other inherited descriptor.
  static StatusOr<WorkerProcess> Spawn(const WorkerSpawnOptions& options);

  WorkerProcess(WorkerProcess&& other) noexcept;
  WorkerProcess& operator=(WorkerProcess&& other) noexcept;
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;
  ~WorkerProcess();

  /// Frames and writes one request onto the worker's request pipe. A write
  /// failure (EPIPE: the worker died before reading it) is safe to retry on
  /// a fresh worker — the request never reached this one.
  Status SendRequest(const WorkerRequest& request);

  int pid() const { return pid_; }
  int response_fd() const { return response_fd_; }

  /// SIGKILL. Safe to call repeatedly; reaping is separate (the supervisor
  /// waitpids exactly the pids it owns, never -1, so it coexists with other
  /// forkers in the process, e.g. the crash-test harness).
  void Kill();

 private:
  WorkerProcess(int pid, int request_fd, int response_fd)
      : pid_(pid), request_fd_(request_fd), response_fd_(response_fd) {}
  void CloseFds();

  int pid_ = -1;
  int request_fd_ = -1;   // Parent writes requests here.
  int response_fd_ = -1;  // Parent reads heartbeats/results here.
};

}  // namespace gputc

#endif  // GPUTC_SERVICE_WORKER_PROCESS_H_
