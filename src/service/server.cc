#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/version.h"

namespace gputc {
namespace {

/// Poll tick. Short enough that connection deadlines (default 10s, tests use
/// ~100ms) are enforced promptly; cross-thread events never wait for it —
/// the wakeup pipe interrupts the poll.
constexpr int kPollTickMs = 20;

double MillisBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double MillisSince(std::chrono::steady_clock::time_point from) {
  return MillisBetween(from, std::chrono::steady_clock::now());
}

/// The request source echoed in door-rejection lines. Bounded: an attacker's
/// 64 KiB garbage line must not become a 64 KiB error response.
std::string BoundedSource(const std::string& line) {
  constexpr size_t kMax = 160;
  if (line.size() <= kMax) return line;
  return line.substr(0, kMax) + "...";
}

bool IsBlankOrComment(const std::string& line) {
  for (char c : line) {
    if (c == ' ' || c == '\t') continue;
    return c == '#' || c == '%';
  }
  return true;
}

Counter& ServerRejectionCounter(const char* reason) {
  return MetricsRegistry::Global().GetCounter(
      "gputc_overload_rejections_total",
      "Requests shed by an overload gate, by reason", {{"reason", reason}});
}

Gauge& ConnectionsGauge() {
  return MetricsRegistry::Global().GetGauge(
      "gputc_connections_active", "Open data connections on the serve daemon");
}

/// Minimal HTTP/1.0 response for probe clients (curl, kubelet); plain-text
/// clients that send a bare endpoint name get the body alone.
std::string HttpResponse(int code, const std::string& reason,
                         const std::string& body,
                         const std::string& extra_header = "") {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason + "\r\n";
  out += "Content-Type: text/plain; version=0.0.4\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (!extra_header.empty()) out += extra_header + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(options_.batch),
      limiter_(options_.limiter) {}

Server::~Server() {
  for (int fd : {listen_fd_, health_fd_, wake_r_, wake_w_}) {
    if (fd >= 0) ::close(fd);
  }
}

Status Server::Start() {
  GPUTC_CHECK(!started_) << "Server::Start called twice";
  started_ = true;

  GPUTC_ASSIGN_OR_RETURN(listen_fd_, OpenListener(options_.listen));
  if (!options_.listen.is_unix) {
    listen_port_ = options_.listen.port;
    if (listen_port_ == 0) {
      sockaddr_in addr{};
      socklen_t len = sizeof(addr);
      if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                        &len) == 0) {
        listen_port_ = ntohs(addr.sin_port);
      }
    }
  }
  if (options_.has_health) {
    GPUTC_ASSIGN_OR_RETURN(health_fd_, OpenListener(options_.health));
  }

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    return InternalError("pipe2 for the server wakeup pipe failed");
  }
  wake_r_ = pipe_fds[0];
  wake_w_ = pipe_fds[1];

  service_.set_on_report([this](const RequestReport& r) { OnReport(r); });
  service_.Start();
  return OkStatus();
}

Status Server::ParseLine(const std::string& line,
                         std::vector<BatchRequest>* requests) const {
  std::istringstream in(line);
  GPUTC_ASSIGN_OR_RETURN(*requests, ParseManifest(in));
  return OkStatus();
}

Status Server::ValidateRecovered(const std::string& id,
                                 const std::string& line) const {
  std::vector<BatchRequest> parsed;
  GPUTC_RETURN_IF_ERROR(ParseLine(line, &parsed));
  if (parsed.size() != 1) {
    return InvalidArgumentError("recovered WAL intent '" + id +
                                "' does not hold exactly one request: '" +
                                BoundedSource(line) + "'");
  }
  return OkStatus();
}

Status Server::SubmitRecovered(const std::string& id,
                               const std::string& line) {
  GPUTC_RETURN_IF_ERROR(ValidateRecovered(id, line));
  std::vector<BatchRequest> parsed;
  GPUTC_RETURN_IF_ERROR(ParseLine(line, &parsed));
  BatchRequest request = std::move(parsed[0]);
  request.id = id;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    // Exactly-once: a duplicate id must not clobber a registered request —
    // the overwritten entry's report would route to the wrong owner and the
    // orphaned second report would leak an inflight slot.
    if (!pending_.emplace(id, PendingRequest{0, Clock::now(), false})
             .second) {
      return FailedPreconditionError("request id '" + id +
                                     "' is already registered");
    }
  }
  inflight_total_.fetch_add(1, std::memory_order_acq_rel);
  service_.Submit(std::move(request));
  return OkStatus();
}

void Server::RequestShutdown(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(reason_mu_);
    if (shutdown_reason_.empty()) shutdown_reason_ = reason;
  }
  shutdown_requested_.store(true, std::memory_order_release);
  Wake();
}

std::string Server::shutdown_reason() const {
  std::lock_guard<std::mutex> lock(reason_mu_);
  return shutdown_reason_;
}

bool Server::ready() const {
  if (shutdown_requested_.load(std::memory_order_acquire)) return false;
  if (options_.storage != nullptr && options_.storage->strict_stopped()) {
    // The strict-WAL fail-stop fired: the daemon is finishing in-flight
    // work on its way to exit code 6 and must take no new traffic.
    return false;
  }
  if (options_.batch.isolate > 0) {
    // A daemon whose worker pool is crash-looping still answers (degraded
    // cpu failover), but a load balancer should stop preferring it.
    BatchService& service = const_cast<BatchService&>(service_);
    if (service.breakers().ForBackend("worker").state() ==
        CircuitBreaker::State::kOpen) {
      return false;
    }
  }
  return true;
}

void Server::Wake() {
  // A full pipe already guarantees a pending wakeup; any error here is
  // therefore ignorable by design.
  const char byte = 'w';
  [[maybe_unused]] ssize_t ignored = ::write(wake_w_, &byte, 1);
}

void Server::OnReport(const RequestReport& report) {
  // Serialized by the service's journal lock: WAL done + journal file first
  // (durability before emission — the exactly-once contract), then route the
  // response to its connection.
  if (options_.on_report) options_.on_report(report);

  PendingRequest info;
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(report.id);
    if (it != pending_.end()) {
      info = it->second;
      pending_.erase(it);
      known = true;
    }
  }
  if (!known) return;  // Not ours (defensive; every submit registers).
  inflight_total_.fetch_sub(1, std::memory_order_acq_rel);
  if (info.limited) limiter_.Release(MillisSince(info.submitted));
  if (info.conn_id != 0) {
    std::lock_guard<std::mutex> lock(responses_mu_);
    responses_.emplace_back(info.conn_id, report.ToJson());
  }
  Wake();
}

size_t Server::DataConnectionCount() const {
  size_t count = 0;
  for (const auto& [fd, conn] : conns_) {
    if (!conn.is_health) ++count;
  }
  return count;
}

size_t Server::HealthConnectionCount() const {
  size_t count = 0;
  for (const auto& [fd, conn] : conns_) {
    if (conn.is_health) ++count;
  }
  return count;
}

void Server::AcceptPending(int listener_fd, bool is_health) {
  for (;;) {
    // Each listener has its own cap; a probe flood on the health port must
    // not be able to exhaust descriptors just because it bypasses the data
    // cap. Reached mid-burst, the rest stays in the backlog.
    if (is_health
            ? HealthConnectionCount() >= options_.max_health_connections
            : DataConnectionCount() >= options_.max_connections) {
      return;
    }
    StatusOr<int> accepted = AcceptRetry(listener_fd);
    if (!accepted.ok()) {
      // EMFILE/ENFILE (or any other accept error): the listener stays
      // readable, so a level-triggered poll would spin on it. Deregister
      // every listener briefly; the idle sweep frees descriptors meanwhile.
      accept_backoff_ = Deadline::AfterMillis(100.0);
      return;
    }
    if (*accepted < 0) return;
    const int fd = *accepted;
    if (Status nb = SetNonBlocking(fd); !nb.ok()) {
      ::close(fd);
      continue;
    }
    const uint64_t id = ++next_conn_id_;
    auto [it, inserted] = conns_.emplace(fd, Connection(fd, id));
    GPUTC_CHECK(inserted) << "fd " << fd << " already tracked";
    Connection& conn = it->second;
    conn.is_health = is_health;
    conn_fd_[id] = fd;
    if (!is_health) {
      ++summary_.connections_accepted;
      ConnectionsGauge().Add(1.0);
      // Protocol clients read this version hello before their first request.
      conn.QueueLine("{\"hello\":\"gputc\",\"version\":\"" +
                     VersionString() + "\",\"proto\":1}");
    }
  }
}

void Server::QueueErrorLine(Connection& conn, const std::string& id,
                            const std::string& source, Status status,
                            int64_t retry_after_ms) {
  RequestReport report;
  report.id = id;
  report.source = BoundedSource(source);
  report.outcome = RequestOutcome::kRejected;
  report.status = std::move(status);
  report.retry_after_ms = retry_after_ms;
  conn.QueueLine(report.ToJson());
}

void Server::HandleRequestLine(Connection& conn, const std::string& line) {
  if (IsBlankOrComment(line)) return;  // Manifest semantics: no response.
  ++summary_.requests_received;

  std::vector<BatchRequest> parsed;
  const Status parse_status = ParseLine(line, &parsed);
  if (!parse_status.ok() || parsed.size() != 1) {
    ++summary_.protocol_errors;
    QueueErrorLine(conn, "", line,
                   parse_status.ok()
                       ? InvalidArgumentError(
                             "request must be exactly one manifest line")
                       : parse_status,
                   /*retry_after_ms=*/-1);
    return;
  }
  BatchRequest request = std::move(parsed[0]);
  // The run epoch (nonzero on a resumed WAL) keeps generated ids unique
  // across runs: without it, run two's "net-1-1" would collide with a
  // WAL-recovered pending request registered under the same id by run one.
  const std::string id =
      (options_.run_epoch > 0
           ? "net-r" + std::to_string(options_.run_epoch) + "-"
           : std::string("net-")) +
      std::to_string(conn.id()) + "-" + std::to_string(++next_request_seq_);
  request.id = id;
  {
    // Structurally impossible given the epoch, but an id collision breaks
    // the exactly-once contract in three ways at once (misrouted response,
    // leaked inflight slot, double WAL done) — so belt-and-braces.
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (pending_.count(id) > 0) {
      QueueErrorLine(conn, id, request.source,
                     InternalError("generated request id '" + id +
                                   "' collides with a registered request"),
                     /*retry_after_ms=*/-1);
      return;
    }
  }

  // Overload gate 1: adaptive concurrency (tail-latency AIMD).
  const Status slot = limiter_.TryAcquire();
  if (!slot.ok()) {
    ++summary_.overload_rejections;
    ServerRejectionCounter("concurrency").Increment();
    QueueErrorLine(conn, id, request.source, slot, limiter_.RetryAfterMs());
    return;
  }
  // Overload gate 2: the hard queue bound. Submit below must never block
  // the poll thread, so the server refuses before the queue could.
  if (inflight_total_.load(std::memory_order_acquire) >=
      options_.batch.queue_depth) {
    limiter_.ReleaseSlot();  // No latency sample: nothing executed.
    ++summary_.overload_rejections;
    ServerRejectionCounter("queue").Increment();
    QueueErrorLine(conn, id, request.source,
                   ResourceExhaustedError(
                       "service work queue is full (" +
                       std::to_string(options_.batch.queue_depth) +
                       " requests in flight)"),
                   limiter_.RetryAfterMs());
    return;
  }
  // Durability: the WAL intent must exist before the service can produce an
  // outcome, or a crash between the two would lose the request.
  if (options_.on_intent) {
    const Status logged = options_.on_intent(id, line);
    if (!logged.ok()) {
      limiter_.ReleaseSlot();  // No latency sample: nothing executed.
      QueueErrorLine(conn, id, request.source,
                     logged.WithContext("write-ahead intent"),
                     /*retry_after_ms=*/-1);
      // A daemon that cannot persist intents must stop taking work.
      RequestShutdown("WAL append failed: " + logged.ToString());
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_[id] = PendingRequest{conn.id(), Clock::now(), true};
  }
  inflight_total_.fetch_add(1, std::memory_order_acq_rel);
  ++conn.inflight;
  service_.Submit(std::move(request));
}

void Server::HandleHealthLine(Connection& conn, const std::string& line) {
  // "GET /readyz HTTP/1.1" from probes, or a bare "readyz" from nc.
  std::istringstream in(line);
  std::string token;
  in >> token;
  bool http = false;
  if (token == "GET" || token == "HEAD") {
    http = true;
    in >> token;
  }
  if (!token.empty() && token.front() == '/') token.erase(0, 1);
  const size_t query = token.find('?');
  if (query != std::string::npos) token.resize(query);

  int code = 200;
  std::string reason = "OK";
  std::string body;
  std::string extra_header;
  if (token == "healthz") {
    body = "ok\n";
  } else if (token == "readyz") {
    const bool storage_stopped =
        options_.storage != nullptr && options_.storage->strict_stopped();
    if (ready()) {
      body = "ready\n";
      if (options_.storage != nullptr && options_.storage->degraded()) {
        // Serving, but a sink lost its disk (WAL degraded, journal
        // mirroring to stderr, low free space): tell the load balancer
        // without failing the probe.
        extra_header = "X-Gputc-Storage: degraded";
      }
    } else {
      code = 503;
      reason = "Service Unavailable";
      body = storage_stopped ? "storage-degraded\n"
             : shutdown_requested_.load(std::memory_order_acquire)
                 ? "draining\n"
                 : "worker breaker open\n";
    }
  } else if (token == "metrics") {
    body = MetricsRegistry::Global().PrometheusText();
  } else {
    code = 404;
    reason = "Not Found";
    body = "unknown endpoint (healthz | readyz | metrics)\n";
  }
  conn.QueueRaw(http ? HttpResponse(code, reason, body, extra_header) : body);
  conn.close_after_flush = true;
  conn.HalfCloseRead();
}

void Server::DeliverResponses() {
  std::vector<std::pair<uint64_t, std::string>> batch;
  {
    std::lock_guard<std::mutex> lock(responses_mu_);
    batch.swap(responses_);
  }
  for (auto& [conn_id, json] : batch) {
    auto it = conn_fd_.find(conn_id);
    if (it == conn_fd_.end()) continue;  // Peer gone; the journal has it.
    Connection& conn = conns_.at(it->second);
    conn.QueueLine(json);
    if (conn.inflight > 0) --conn.inflight;
    ++summary_.responses_sent;
  }
}

void Server::SweepDeadlines(std::vector<int>* dead) {
  for (auto& [fd, conn] : conns_) {
    if (conn.wants_write() &&
        MillisSince(conn.write_pending_since()) > options_.io_timeout_ms) {
      // The peer stopped draining its responses; it forfeits them.
      ++summary_.protocol_errors;
      dead->push_back(fd);
      continue;
    }
    if (conn.read_open() && conn.partial_bytes() > 0 &&
        MillisSince(conn.partial_since()) > options_.io_timeout_ms) {
      // Slowloris: an unfinished request line past the I/O deadline.
      ++summary_.protocol_errors;
      if (!conn.is_health) {
        QueueErrorLine(conn, "", "",
                       DeadlineExceededError(
                           "request line not completed within " +
                           std::to_string(
                               static_cast<int64_t>(options_.io_timeout_ms)) +
                           "ms"),
                       /*retry_after_ms=*/-1);
      }
      conn.HalfCloseRead();
      conn.close_after_flush = true;
      continue;
    }
    if (conn.read_open() && conn.inflight == 0 && !conn.wants_write() &&
        conn.partial_bytes() == 0 &&
        MillisSince(conn.last_activity()) > options_.idle_timeout_ms) {
      dead->push_back(fd);  // Quiet connection; close cleanly.
    }
  }
}

void Server::DestroyConnection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (!it->second.is_health) ConnectionsGauge().Add(-1.0);
  conn_fd_.erase(it->second.id());
  conns_.erase(it);  // Destructor closes the fd.
}

void Server::CloseListeners() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (options_.listen.is_unix) ::unlink(options_.listen.path.c_str());
}

ServerSummary Server::Run() {
  Phase phase = Phase::kServing;
  Deadline grace;
  Deadline final_deadline;
  bool service_drained = false;

  for (;;) {
    // Disk-health heartbeat: rate-limited inside the monitor, so this is a
    // cheap call per poll tick that keeps gputc_disk_free_bytes and the
    // /readyz degraded header current.
    if (options_.storage != nullptr) options_.storage->MaybeProbe();
    if (phase == Phase::kServing &&
        shutdown_requested_.load(std::memory_order_acquire)) {
      // Drain ladder, rungs one and two: stop accepting (readiness already
      // reads false), then half-close every data reader. In-flight work
      // keeps running; queued responses still go out.
      phase = Phase::kDraining;
      CloseListeners();
      for (auto& [fd, conn] : conns_) {
        if (conn.is_health) continue;
        conn.HalfCloseRead();
        conn.close_after_flush = true;
      }
      grace = Deadline::AfterMillis(std::max(0.0, options_.drain_grace_ms));
    }
    if (phase == Phase::kDraining) {
      bool writes_pending = false;
      for (const auto& [fd, conn] : conns_) {
        if (!conn.is_health && conn.wants_write()) writes_pending = true;
      }
      bool responses_pending;
      {
        std::lock_guard<std::mutex> lock(responses_mu_);
        responses_pending = !responses_.empty();
      }
      const bool work_pending =
          inflight_total_.load(std::memory_order_acquire) > 0;
      if (!work_pending && !responses_pending && !writes_pending) break;
      if (grace.expired() && !service_drained) {
        // Rung three: the grace window closed; cancel stragglers through
        // the service's own drain under this same, already expired, grace
        // (each execution stops at its next poll; queued entries are
        // journaled as rejected), then wait at most 2 s more.
        service_drained = true;
        service_.RequestDrain(shutdown_reason(), grace);
        final_deadline = Deadline::AfterMillis(2000.0);
      }
      if (service_drained && final_deadline.expired()) break;
    }

    std::vector<pollfd> pfds;
    pfds.push_back(pollfd{wake_r_, POLLIN, 0});
    // Listeners leave the poll set at their connection cap and during an
    // accept-failure backoff (EMFILE): a readable listener we will not
    // accept from would spin the level-triggered loop.
    const bool accepts_ok = accept_backoff_.expired();
    const bool poll_listener =
        phase == Phase::kServing && listen_fd_ >= 0 && accepts_ok &&
        DataConnectionCount() < options_.max_connections;
    if (poll_listener) pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    if (health_fd_ >= 0 && accepts_ok &&
        HealthConnectionCount() < options_.max_health_connections) {
      pfds.push_back(pollfd{health_fd_, POLLIN, 0});
    }
    const size_t conns_at = pfds.size();
    for (const auto& [fd, conn] : conns_) {
      short events = 0;
      if (conn.read_open()) events |= POLLIN;
      if (conn.wants_write()) events |= POLLOUT;
      pfds.push_back(pollfd{fd, events, 0});
    }

    const StatusOr<int> ready_count =
        PollRetry(pfds.data(), pfds.size(), kPollTickMs);
    GPUTC_CHECK(ready_count.ok()) << ready_count.status().ToString();

    if ((pfds[0].revents & POLLIN) != 0) {
      char drain_buf[256];
      bool would_block = false;
      while (true) {
        const StatusOr<size_t> n =
            ReadRetry(wake_r_, drain_buf, sizeof(drain_buf), &would_block);
        if (!n.ok() || would_block || *n == 0) break;
      }
    }
    DeliverResponses();

    for (size_t i = 1; i < conns_at; ++i) {
      if ((pfds[i].revents & POLLIN) == 0) continue;
      AcceptPending(pfds[i].fd, /*is_health=*/pfds[i].fd == health_fd_);
    }

    std::vector<int> dead;
    for (size_t i = conns_at; i < pfds.size(); ++i) {
      const int fd = pfds[i].fd;
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          conn.read_open()) {
        std::vector<std::string> lines;
        const ReadEvent event = conn.ReadLines(options_.max_line_bytes,
                                               &lines);
        for (const std::string& line : lines) {
          if (conn.is_health) {
            // One probe request per connection; ignore the rest of an HTTP
            // header block.
            if (!conn.close_after_flush) HandleHealthLine(conn, line);
          } else {
            HandleRequestLine(conn, line);
          }
        }
        switch (event) {
          case ReadEvent::kProgress:
            break;
          case ReadEvent::kEof:
            conn.close_after_flush = true;
            break;
          case ReadEvent::kTornEof:
            // Mid-request disconnect: the partial line is unrecoverable,
            // but responses for completed requests still get delivered.
            if (!conn.is_health) ++summary_.protocol_errors;
            conn.close_after_flush = true;
            break;
          case ReadEvent::kLineTooLong:
            ++summary_.protocol_errors;
            if (!conn.is_health) {
              QueueErrorLine(
                  conn, "", "",
                  InvalidArgumentError(
                      "request line exceeds " +
                      std::to_string(options_.max_line_bytes) + " bytes"),
                  /*retry_after_ms=*/-1);
            }
            conn.HalfCloseRead();
            conn.close_after_flush = true;
            break;
          case ReadEvent::kError:
            dead.push_back(fd);
            continue;
        }
      }
      if (conn.wants_write()) {
        if (const Status flushed = conn.FlushWrites(); !flushed.ok()) {
          dead.push_back(fd);
          continue;
        }
      }
      if (conn.close_after_flush && conn.inflight == 0 &&
          !conn.wants_write()) {
        dead.push_back(fd);
      }
    }

    SweepDeadlines(&dead);
    for (int fd : dead) DestroyConnection(fd);
  }

  // The ladder's last rung: join the service, deliver any reports that
  // landed during the join (best effort — sockets are non-blocking and the
  // grace is spent), and account for everything.
  summary_.batch = service_.Finish();
  DeliverResponses();
  for (auto& [fd, conn] : conns_) {
    if (conn.wants_write()) (void)conn.FlushWrites();
  }
  while (!conns_.empty()) DestroyConnection(conns_.begin()->first);
  if (health_fd_ >= 0) {
    ::close(health_fd_);
    health_fd_ = -1;
    if (options_.health.is_unix) ::unlink(options_.health.path.c_str());
  }
  CloseListeners();
  ConnectionsGauge().Set(0.0);
  summary_.drain_reason = shutdown_reason();
  return summary_;
}

}  // namespace gputc
