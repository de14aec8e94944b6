#ifndef GPUTC_SERVICE_SERVER_H_
#define GPUTC_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/batch_service.h"
#include "service/connection.h"
#include "service/overload.h"
#include "service/storage_health.h"
#include "util/deadline.h"
#include "util/net_io.h"

namespace gputc {

// The network serving layer (`gputc serve`): a poll-based daemon that speaks
// the manifest line protocol over TCP or a unix-domain socket — one request
// line in, one journal JSON line out — and routes every request through the
// existing BatchService / Supervisor / WAL stack, so process isolation,
// crash containment, and --resume work over the wire exactly as they do for
// `gputc batch`.
//
// The robustness surface lives here, in layers:
//
//   accept      — hard max-connections cap; the listener simply leaves poll
//                 while at the cap (backpressure lands in the SYN backlog,
//                 not in our memory).
//   connection  — request-line length cap, per-connection read/write
//                 deadlines, idle timeout (Connection; the slowloris
//                 defenses), EINTR/partial-I/O safety (util/net_io).
//   admission   — an adaptive AIMD concurrency limiter on observed p99
//                 latency (overload.h), then a hard queue bound, then the
//                 service's own memory admission gate. Overload rejections
//                 are structured journal lines carrying retry_after_ms.
//   shutdown    — a graceful-drain ladder on SIGTERM/SIGINT: stop accepting
//                 -> flip readiness -> half-close every reader -> deliver
//                 in-flight responses within a grace window -> cancel
//                 stragglers through the service's drain -> flush and exit.
//
// A separate health listener serves liveness (/healthz), readiness
// (/readyz — false while draining or while the worker breaker is open), and
// Prometheus text (/metrics), so probes never compete with data traffic for
// the request path.

/// Tuning and integration hooks of one Server.
struct ServerOptions {
  /// Data listener (required).
  ListenSpec listen;
  /// Optional health/metrics listener.
  bool has_health = false;
  ListenSpec health;

  /// Hard cap on concurrently open data connections; the listener is not
  /// polled while at the cap.
  size_t max_connections = 64;
  /// Separate (small) cap for the health listener, enforced the same way —
  /// probes must not be able to exhaust descriptors just because they
  /// bypass the data cap.
  size_t max_health_connections = 8;
  /// Request-line length cap (unterminated buffered bytes).
  size_t max_line_bytes = 64 * 1024;
  /// Close connections with no activity, no in-flight work, and nothing
  /// buffered after this long.
  double idle_timeout_ms = 30000.0;
  /// Slowloris/stall bound: a request line that stays unfinished this long,
  /// or a response the peer has not drained in this long, kills the
  /// connection.
  double io_timeout_ms = 10000.0;
  /// Drain ladder grace: how long in-flight requests may finish naturally
  /// after shutdown is requested before the service cancels them.
  double drain_grace_ms = 2000.0;

  /// How many previous runs already wrote the WAL this daemon resumed
  /// (`WalReplay::versions.size()`; 0 for a fresh log or no WAL). Folded
  /// into generated request ids — "net-r<epoch>-<conn>-<seq>" when nonzero —
  /// so ids are unique across crash/resume cycles: a recovered pending
  /// request registered under its old id can never collide with a new
  /// request of the resumed run (which would misroute its response, leak an
  /// inflight slot, and double-write WAL done for one id).
  uint64_t run_epoch = 0;

  AdaptiveLimiterOptions limiter;
  BatchServiceOptions batch;

  /// Durability hook: called on the poll thread after a request passes every
  /// overload gate and before it is submitted (the WAL intent append). A
  /// failure fails the request and starts a drain — a daemon that cannot
  /// log intents must not accept work.
  std::function<Status(const std::string& id, const std::string& line)>
      on_intent;
  /// Journal hook: called once per terminal report, serialized in journal
  /// order (the WAL done append + journal file write), before the response
  /// line is queued to the client.
  std::function<void(const RequestReport&)> on_report;

  /// Disk-health view (not owned; must outlive the server). The poll loop
  /// drives MaybeProbe every tick; /readyz flips to 503 "storage-degraded"
  /// once a strict-WAL stop is recorded and carries an
  /// "X-Gputc-Storage: degraded" header while any sink runs degraded.
  StorageHealthMonitor* storage = nullptr;
};

/// What Run() returns once the drain ladder completes.
struct ServerSummary {
  int64_t connections_accepted = 0;
  int64_t requests_received = 0;
  int64_t responses_sent = 0;
  int64_t overload_rejections = 0;
  /// Oversized lines, unparseable requests, mid-request disconnects,
  /// slowloris kills.
  int64_t protocol_errors = 0;
  std::string drain_reason;
  /// The underlying service's outcome counts.
  BatchSummary batch;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the listeners and the wakeup pipe and starts the batch service.
  /// Call once, before Run.
  Status Start();

  /// Side-effect-free admissibility check for one WAL-recovered request
  /// line: parses it and requires exactly one request.
  Status ValidateRecovered(const std::string& id,
                           const std::string& line) const;

  /// Re-submits one WAL-recovered pending request (after Start, before Run).
  /// No live connection owns it, so its outcome goes to the journal hooks
  /// only; the WAL intent already exists, so on_intent is skipped. Fails
  /// without side effects on an invalid line (ValidateRecovered) or an id
  /// that is already registered (exactly-once: never clobber a pending
  /// entry).
  Status SubmitRecovered(const std::string& id, const std::string& line);

  /// The poll loop. Blocks until RequestShutdown's drain ladder completes;
  /// returns the final accounting.
  ServerSummary Run();

  /// Starts the graceful-drain ladder. Thread-safe and idempotent (the
  /// signal watcher calls it); the first reason wins.
  void RequestShutdown(const std::string& reason);

  /// Actual bound TCP port (resolves --listen HOST:0); 0 for unix sockets.
  /// Valid after Start.
  int listen_port() const { return listen_port_; }
  /// False once shutdown has been requested, the worker backend breaker is
  /// open, or the storage monitor recorded a strict-WAL stop — what /readyz
  /// reports.
  bool ready() const;

  const AdaptiveLimiter& limiter() const { return limiter_; }
  BatchService& service() { return service_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Where a submitted request's response goes, and what the limiter is
  /// owed. conn_id 0 = recovered request (no connection).
  struct PendingRequest {
    uint64_t conn_id = 0;
    Clock::time_point submitted;
    bool limited = false;
  };

  enum class Phase { kServing, kDraining };

  /// Terminal-report hook installed on the batch service (worker threads).
  void OnReport(const RequestReport& report);
  /// Pokes the wakeup pipe so the poll loop notices cross-thread state.
  void Wake();

  void AcceptPending(int listener_fd, bool is_health);
  /// One complete request line from a data connection: parse, run the
  /// overload gates, log intent, submit. Queues a structured rejection or
  /// error line itself when the request never reaches the service.
  void HandleRequestLine(Connection& conn, const std::string& line);
  /// One request line from the health listener ("GET /readyz HTTP/1.1" or
  /// bare "readyz"): queues the response and marks the connection done.
  void HandleHealthLine(Connection& conn, const std::string& line);
  /// Queues a server-side rejection/error journal line (never reaches the
  /// WAL or journal file — the request was refused at the door).
  void QueueErrorLine(Connection& conn, const std::string& id,
                      const std::string& source, Status status,
                      int64_t retry_after_ms);
  /// Delivers queued responses from worker threads to their connections.
  void DeliverResponses();
  /// Enforces the idle / partial-read / write-stall deadlines.
  void SweepDeadlines(std::vector<int>* dead);
  size_t DataConnectionCount() const;
  size_t HealthConnectionCount() const;
  void DestroyConnection(int fd);
  void CloseListeners();
  Status ParseLine(const std::string& line,
                   std::vector<BatchRequest>* requests) const;
  std::string shutdown_reason() const;

  ServerOptions options_;
  BatchService service_;
  AdaptiveLimiter limiter_;

  int listen_fd_ = -1;
  int health_fd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  int listen_port_ = 0;
  bool started_ = false;

  uint64_t next_conn_id_ = 0;
  uint64_t next_request_seq_ = 0;
  /// While unexpired, no listener is polled: accept failed with a resource
  /// error (EMFILE/ENFILE), and a still-readable listener would otherwise
  /// make the level-triggered poll loop spin until descriptors free up.
  Deadline accept_backoff_ = Deadline::AfterMillis(0.0);
  std::map<int, Connection> conns_;            // fd -> connection.
  std::unordered_map<uint64_t, int> conn_fd_;  // connection id -> fd.

  /// Submitted-but-unresolved requests (poll thread inserts, OnReport on
  /// worker threads erases).
  mutable std::mutex pending_mu_;
  std::unordered_map<std::string, PendingRequest> pending_;
  std::atomic<size_t> inflight_total_{0};

  /// Terminal journal lines waiting for the poll thread to route them to
  /// their connections.
  std::mutex responses_mu_;
  std::vector<std::pair<uint64_t, std::string>> responses_;

  std::atomic<bool> shutdown_requested_{false};
  mutable std::mutex reason_mu_;
  std::string shutdown_reason_;

  ServerSummary summary_;
};

}  // namespace gputc

#endif  // GPUTC_SERVICE_SERVER_H_
