#include "service/worker_process.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/durable_file.h"
#include "util/failpoint.h"
#include "util/net_io.h"

// Sanitizer shadow memory reserves terabytes of address space; RLIMIT_AS
// would kill every worker at startup, so the limit is compiled out of
// sanitizer builds (the isolation tests still run, just without the
// memory-containment teeth).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GPUTC_SANITIZER_BUILD 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#ifndef GPUTC_SANITIZER_BUILD
#define GPUTC_SANITIZER_BUILD 1
#endif
#endif
#endif

namespace gputc {
namespace {

/// Upper bound on one frame's payload: far above any real request/result
/// (the largest carries a few KB of trace lines) but small enough that a
/// garbage length from a torn header cannot trigger a giant allocation.
constexpr uint32_t kMaxFramePayload = 16u << 20;

/// The fds the worker subcommand is execed with. Fixed numbers (not flags
/// that could drift) keep the child-side dup2 dance auditable.
constexpr int kChildRequestFd = 3;
constexpr int kChildResponseFd = 4;
constexpr int kChildStatusFd = 5;

// EINTR-safe exact I/O lives in util/net_io (WriteAllFd/ReadFullFd), shared
// with the serve daemon; the EPIPE -> FailedPrecondition classification
// (peer gone, request safe to retry elsewhere) is part of its contract.

/// Escapes newlines/backslashes so any string survives the line protocol.
std::string EscapeValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

StatusOr<std::string> UnescapeValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '\\') {
      out += value[i];
      continue;
    }
    if (i + 1 >= value.size()) {
      return InvalidArgumentError("dangling escape at end of value");
    }
    ++i;
    if (value[i] == 'n') {
      out += '\n';
    } else if (value[i] == '\\') {
      out += '\\';
    } else {
      return InvalidArgumentError(std::string("unknown escape '\\") +
                                  value[i] + "'");
    }
  }
  return out;
}

void AppendLine(std::string* out, std::string_view key,
                std::string_view value) {
  out->append(key);
  out->push_back('=');
  out->append(EscapeValue(value));
  out->push_back('\n');
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status ParseWireDouble(const std::string& raw, std::string_view key,
                       double* out) {
  char* end = nullptr;
  *out = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end == raw.c_str() || *end != '\0') {
    return InvalidArgumentError("wire field '" + std::string(key) +
                                "' value '" + raw + "' is not a number");
  }
  return OkStatus();
}

Status ParseWireInt(const std::string& raw, std::string_view key,
                    int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(raw.c_str(), &end, 10);
  if (raw.empty() || end == raw.c_str() || *end != '\0') {
    return InvalidArgumentError("wire field '" + std::string(key) +
                                "' value '" + raw + "' is not an integer");
  }
  return OkStatus();
}

/// Walks "key=value\n" lines, invoking `visit(key, unescaped_value)`.
Status ForEachWireLine(
    std::string_view body,
    const std::function<Status(std::string_view, const std::string&)>& visit) {
  size_t begin = 0;
  while (begin < body.size()) {
    size_t end = body.find('\n', begin);
    if (end == std::string_view::npos) end = body.size();
    const std::string_view line = body.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return InvalidArgumentError("malformed wire line '" + std::string(line) +
                                  "'");
    }
    GPUTC_ASSIGN_OR_RETURN(const std::string value,
                           UnescapeValue(line.substr(eq + 1)));
    GPUTC_RETURN_IF_ERROR(visit(line.substr(0, eq), value));
  }
  return OkStatus();
}

}  // namespace

Status WriteFrame(int fd, char type, std::string_view body) {
  std::string payload(1, type);
  payload.append(body.data(), body.size());
  const std::string frame = EncodeFrame(payload);

  // Result frames deliberately land in two writes with the
  // "worker.response.torn" site between them: armed as `crash`, the worker
  // dies leaving half a frame on the pipe — the exact artifact the
  // supervisor must classify as a crash, not as usable data.
  if (type == kFrameResult) {
    FailPointScope scope;
    const size_t split = kFrameHeaderBytes + payload.size() / 2;
    GPUTC_RETURN_IF_ERROR(WriteAllFd(fd, frame.data(), split));
    GPUTC_RETURN_IF_ERROR(CheckFailPoint("worker.response.torn"));
    return WriteAllFd(fd, frame.data() + split, frame.size() - split);
  }
  return WriteAllFd(fd, frame.data(), frame.size());
}

StatusOr<WireFrame> ReadFrame(int fd, Deadline deadline) {
  char header[kFrameHeaderBytes];
  GPUTC_ASSIGN_OR_RETURN(const size_t header_read,
                         ReadFullFd(fd, header, sizeof(header), deadline));
  if (header_read == 0) {
    return FailedPreconditionError("pipe closed at a frame boundary");
  }
  if (header_read < sizeof(header)) {
    return DataLossError("torn frame: EOF after " +
                         std::to_string(header_read) + " header byte(s)");
  }
  GPUTC_ASSIGN_OR_RETURN(const FrameHeader frame_header,
                         DecodeFrameHeader(header, kMaxFramePayload));
  const uint32_t payload_len = frame_header.length;
  std::string payload(payload_len, '\0');
  GPUTC_ASSIGN_OR_RETURN(const size_t payload_read,
                         ReadFullFd(fd, &payload[0], payload_len, deadline));
  if (payload_read < payload_len) {
    return DataLossError("torn frame: EOF after " +
                         std::to_string(payload_read) + " of " +
                         std::to_string(payload_len) + " payload byte(s)");
  }
  if (Crc32c(payload) != frame_header.crc) {
    return DataLossError("frame checksum mismatch");
  }
  WireFrame frame;
  frame.type = payload[0];
  frame.body = payload.substr(1);
  return frame;
}

std::string EncodeWorkerRequest(const WorkerRequest& wire) {
  const BatchRequest& request = wire.request;
  std::string out;
  AppendLine(&out, "id", request.id);
  AppendLine(&out, "source", request.source);
  AppendLine(&out, "kind", std::to_string(static_cast<int>(request.kind)));
  AppendLine(&out, "target", request.target);
  for (const auto& [key, value] : request.params) {
    AppendLine(&out, "param", key + "=" + value);
  }
  AppendLine(&out, "timeout-ms", FormatDouble(request.timeout_ms));
  AppendLine(&out, "fallback", request.fallback);
  AppendLine(&out, "failpoints", request.failpoints);
  AppendLine(&out, "prep-cache-dir", wire.prep_cache_dir);
  AppendLine(&out, "prep-cache-mb", std::to_string(wire.prep_cache_mb));
  return out;
}

StatusOr<WorkerRequest> DecodeWorkerRequest(std::string_view body) {
  WorkerRequest wire;
  BatchRequest& request = wire.request;
  const Status parsed = ForEachWireLine(
      body, [&](std::string_view key, const std::string& value) -> Status {
        if (key == "id") {
          request.id = value;
        } else if (key == "source") {
          request.source = value;
        } else if (key == "kind") {
          int64_t kind = 0;
          GPUTC_RETURN_IF_ERROR(ParseWireInt(value, key, &kind));
          if (kind < 0 || kind > static_cast<int>(BatchRequest::Kind::kGenerate)) {
            return InvalidArgumentError("wire kind " + value +
                                        " out of range");
          }
          request.kind = static_cast<BatchRequest::Kind>(kind);
        } else if (key == "target") {
          request.target = value;
        } else if (key == "param") {
          const size_t eq = value.find('=');
          if (eq == std::string::npos || eq == 0) {
            return InvalidArgumentError("malformed wire param '" + value +
                                        "'");
          }
          request.params[value.substr(0, eq)] = value.substr(eq + 1);
        } else if (key == "timeout-ms") {
          GPUTC_RETURN_IF_ERROR(
              ParseWireDouble(value, key, &request.timeout_ms));
        } else if (key == "fallback") {
          request.fallback = value;
        } else if (key == "failpoints") {
          request.failpoints = value;
        } else if (key == "prep-cache-dir") {
          wire.prep_cache_dir = value;
        } else if (key == "prep-cache-mb") {
          GPUTC_RETURN_IF_ERROR(ParseWireInt(value, key, &wire.prep_cache_mb));
        } else {
          return InvalidArgumentError("unknown wire field '" +
                                      std::string(key) + "'");
        }
        return OkStatus();
      });
  if (!parsed.ok()) return parsed.WithContext("DecodeWorkerRequest");
  if (request.id.empty()) {
    return InvalidArgumentError("DecodeWorkerRequest: missing request id");
  }
  return wire;
}

std::string EncodeWorkerResult(const RequestReport& report) {
  std::string out;
  AppendLine(&out, "code",
             std::to_string(static_cast<int>(report.status.code())));
  AppendLine(&out, "message", report.status.message());
  AppendLine(&out, "stage", report.stage);
  AppendLine(&out, "variant", report.variant);
  AppendLine(&out, "triangles", std::to_string(report.triangles));
  AppendLine(&out, "attempts", std::to_string(report.attempts));
  for (const std::string& line : report.trace) {
    AppendLine(&out, "trace", line);
  }
  AppendLine(&out, "materialize-ms", FormatDouble(report.materialize_ms));
  return out;
}

Status DecodeWorkerResult(std::string_view body, RequestReport* report) {
  RequestReport decoded = *report;
  decoded.trace.clear();
  StatusCode code = StatusCode::kOk;
  std::string message;
  const Status parsed = ForEachWireLine(
      body, [&](std::string_view key, const std::string& value) -> Status {
        if (key == "code") {
          int64_t raw = 0;
          GPUTC_RETURN_IF_ERROR(ParseWireInt(value, key, &raw));
          if (raw < 0 || raw > static_cast<int>(StatusCode::kCancelled)) {
            return InvalidArgumentError("wire status code " + value +
                                        " out of range");
          }
          code = static_cast<StatusCode>(raw);
        } else if (key == "message") {
          message = value;
        } else if (key == "stage") {
          decoded.stage = value;
        } else if (key == "variant") {
          decoded.variant = value;
        } else if (key == "triangles") {
          GPUTC_RETURN_IF_ERROR(ParseWireInt(value, key, &decoded.triangles));
        } else if (key == "attempts") {
          int64_t attempts = 0;
          GPUTC_RETURN_IF_ERROR(ParseWireInt(value, key, &attempts));
          decoded.attempts = static_cast<int>(attempts);
        } else if (key == "trace") {
          decoded.trace.push_back(value);
        } else if (key == "materialize-ms") {
          GPUTC_RETURN_IF_ERROR(
              ParseWireDouble(value, key, &decoded.materialize_ms));
        } else {
          return InvalidArgumentError("unknown wire field '" +
                                      std::string(key) + "'");
        }
        return OkStatus();
      });
  if (!parsed.ok()) return parsed.WithContext("DecodeWorkerResult");
  decoded.status = code == StatusCode::kOk ? OkStatus() : Status(code, message);
  *report = std::move(decoded);
  return OkStatus();
}

StatusOr<WorkerProcess> WorkerProcess::Spawn(
    const WorkerSpawnOptions& options) {
  FailPointScope scope;
  GPUTC_RETURN_IF_ERROR(
      CheckFailPoint("worker.spawn").WithContext("WorkerProcess::Spawn"));
  if (options.binary.empty()) {
    return InvalidArgumentError("WorkerProcess::Spawn: empty binary path");
  }
  // Armed "worker.exec" swaps in a nonexistent path, so the child's real
  // execve-failure reporting (errno over the CLOEXEC status pipe) is what
  // carries the error — the one spawn path a unit test cannot reach
  // honestly any other way.
  std::string exec_path = options.binary;
  if (!CheckFailPoint("worker.exec").ok()) {
    exec_path += ".failpoint-missing";
  }

  int request_pipe[2];   // parent writes [1] -> child reads [0]
  int response_pipe[2];  // child writes [1] -> parent reads [0]
  int status_pipe[2];    // child reports exec errno on [1]
  if (::pipe2(request_pipe, O_CLOEXEC) != 0) {
    return InternalError(std::string("pipe2: ") + strerror(errno));
  }
  if (::pipe2(response_pipe, O_CLOEXEC) != 0) {
    const int saved = errno;
    ::close(request_pipe[0]);
    ::close(request_pipe[1]);
    return InternalError(std::string("pipe2: ") + strerror(saved));
  }
  if (::pipe2(status_pipe, O_CLOEXEC) != 0) {
    const int saved = errno;
    ::close(request_pipe[0]);
    ::close(request_pipe[1]);
    ::close(response_pipe[0]);
    ::close(response_pipe[1]);
    return InternalError(std::string("pipe2: ") + strerror(saved));
  }

  // Raise the child-side ends above the dup2 targets (3/4/5) so the dance
  // below can never dup2 over a pipe end it still needs.
  int child_request = ::fcntl(request_pipe[0], F_DUPFD_CLOEXEC, 10);
  int child_response = ::fcntl(response_pipe[1], F_DUPFD_CLOEXEC, 10);
  int child_status = ::fcntl(status_pipe[1], F_DUPFD_CLOEXEC, 10);
  ::close(request_pipe[0]);
  ::close(response_pipe[1]);
  ::close(status_pipe[1]);
  if (child_request < 0 || child_response < 0 || child_status < 0) {
    if (child_request >= 0) ::close(child_request);
    if (child_response >= 0) ::close(child_response);
    if (child_status >= 0) ::close(child_status);
    ::close(request_pipe[1]);
    ::close(response_pipe[0]);
    ::close(status_pipe[0]);
    return InternalError("fcntl(F_DUPFD_CLOEXEC) failed");
  }

  // Everything the child needs is materialized before fork: between fork and
  // exec only async-signal-safe calls are allowed (the parent is
  // multithreaded, so the child's heap/locks are in an arbitrary state).
  std::string request_fd_flag =
      "--request-fd=" + std::to_string(kChildRequestFd);
  std::string response_fd_flag =
      "--response-fd=" + std::to_string(kChildResponseFd);
  char* const argv[] = {const_cast<char*>(exec_path.c_str()),
                        const_cast<char*>("worker"),
                        const_cast<char*>(request_fd_flag.c_str()),
                        const_cast<char*>(response_fd_flag.c_str()),
                        nullptr};
#ifndef GPUTC_SANITIZER_BUILD
  const int64_t rlimit_bytes = options.rlimit_as_bytes;
#else
  const int64_t rlimit_bytes = 0;
#endif

  const int pid = ::fork();
  if (pid < 0) {
    const int saved = errno;
    ::close(child_request);
    ::close(child_response);
    ::close(child_status);
    ::close(request_pipe[1]);
    ::close(response_pipe[0]);
    ::close(status_pipe[0]);
    return InternalError(std::string("fork: ") + strerror(saved));
  }

  if (pid == 0) {
    // Child. dup2 clears CLOEXEC on the target, which is exactly right for
    // the request/response fds (the worker must inherit them) and exactly
    // wrong for the status fd (it must vanish on a successful exec), so
    // CLOEXEC is re-set on that one.
    ::dup2(child_request, kChildRequestFd);
    ::dup2(child_response, kChildResponseFd);
    ::dup2(child_status, kChildStatusFd);
    ::fcntl(kChildStatusFd, F_SETFD, FD_CLOEXEC);
    // The service's stdout may BE the journal stream; a worker must never
    // write into it.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      if (devnull > STDERR_FILENO) ::close(devnull);
    }
    // Belt-and-braces fd hygiene: O_CLOEXEC covers the pipes made here, but
    // the parent also holds journal/WAL/trace descriptors opened elsewhere.
    for (int fd = kChildStatusFd + 1; fd < 256; ++fd) ::close(fd);
    if (rlimit_bytes > 0) {
      struct rlimit lim;
      lim.rlim_cur = static_cast<rlim_t>(rlimit_bytes);
      lim.rlim_max = static_cast<rlim_t>(rlimit_bytes);
      ::setrlimit(RLIMIT_AS, &lim);
    }
    ::execv(argv[0], argv);
    // exec failed: report errno to the parent and die without running any
    // atexit handler inherited from it.
    const int exec_errno = errno;
    ssize_t ignored =
        ::write(kChildStatusFd, &exec_errno, sizeof(exec_errno));
    (void)ignored;
    ::_exit(127);
  }

  // Parent.
  ::close(child_request);
  ::close(child_response);
  ::close(child_status);

  // The status pipe answers "did exec happen?": CLOEXEC closes it on
  // success (clean EOF), and the errno arrives on failure. This blocks only
  // for the fork->exec window, which is bounded.
  int exec_errno = 0;
  GPUTC_ASSIGN_OR_RETURN(
      const size_t status_read,
      ReadFullFd(status_pipe[0], reinterpret_cast<char*>(&exec_errno),
                 sizeof(exec_errno)));
  ::close(status_pipe[0]);
  if (status_read != 0) {
    ::close(request_pipe[1]);
    ::close(response_pipe[0]);
    int wait_status = 0;
    ::waitpid(pid, &wait_status, 0);
    return InternalError("worker exec of '" + exec_path +
                         "' failed: " + strerror(exec_errno));
  }
  return WorkerProcess(pid, request_pipe[1], response_pipe[0]);
}

WorkerProcess::WorkerProcess(WorkerProcess&& other) noexcept
    : pid_(other.pid_),
      request_fd_(other.request_fd_),
      response_fd_(other.response_fd_) {
  other.pid_ = -1;
  other.request_fd_ = -1;
  other.response_fd_ = -1;
}

WorkerProcess& WorkerProcess::operator=(WorkerProcess&& other) noexcept {
  if (this != &other) {
    CloseFds();
    pid_ = other.pid_;
    request_fd_ = other.request_fd_;
    response_fd_ = other.response_fd_;
    other.pid_ = -1;
    other.request_fd_ = -1;
    other.response_fd_ = -1;
  }
  return *this;
}

WorkerProcess::~WorkerProcess() { CloseFds(); }

void WorkerProcess::CloseFds() {
  if (request_fd_ >= 0) ::close(request_fd_);
  if (response_fd_ >= 0) ::close(response_fd_);
  request_fd_ = -1;
  response_fd_ = -1;
}

Status WorkerProcess::SendRequest(const WorkerRequest& request) {
  if (request_fd_ < 0) {
    return FailedPreconditionError("SendRequest on a closed worker");
  }
  return WriteFrame(request_fd_, kFrameRequest, EncodeWorkerRequest(request))
      .WithContext("SendRequest to worker pid " + std::to_string(pid_));
}

void WorkerProcess::Kill() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

}  // namespace gputc
