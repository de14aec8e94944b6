#include "util/net_io.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace gputc {

StatusOr<int> PollRetry(struct pollfd* fds, size_t nfds, int timeout_ms) {
  for (;;) {
    const int ready = ::poll(fds, static_cast<nfds_t>(nfds), timeout_ms);
    if (ready >= 0) return ready;
    if (errno == EINTR) continue;
    return InternalError(std::string("poll: ") + strerror(errno));
  }
}

StatusOr<size_t> ReadRetry(int fd, char* data, size_t size,
                           bool* would_block) {
  if (would_block != nullptr) *would_block = false;
  for (;;) {
    const ssize_t n = ::read(fd, data, size);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == EWOULDBLOCK) && would_block != nullptr) {
      *would_block = true;
      return static_cast<size_t>(0);
    }
    return InternalError(std::string("read: ") + strerror(errno));
  }
}

StatusOr<size_t> WriteRetry(int fd, const char* data, size_t size,
                            bool* would_block) {
  if (would_block != nullptr) *would_block = false;
  for (;;) {
    const ssize_t n = ::write(fd, data, size);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == EWOULDBLOCK) && would_block != nullptr) {
      *would_block = true;
      return static_cast<size_t>(0);
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return FailedPreconditionError("peer closed the pipe (EPIPE)");
    }
    return InternalError(std::string("write: ") + strerror(errno));
  }
}

StatusOr<size_t> SendRetry(int fd, const char* data, size_t size,
                           bool* would_block) {
  if (would_block != nullptr) *would_block = false;
  for (;;) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == EWOULDBLOCK) && would_block != nullptr) {
      *would_block = true;
      return static_cast<size_t>(0);
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return FailedPreconditionError("peer closed the socket (EPIPE)");
    }
    return InternalError(std::string("send: ") + strerror(errno));
  }
}

Status WriteAllFd(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    GPUTC_ASSIGN_OR_RETURN(const size_t n,
                           WriteRetry(fd, data + done, size - done));
    done += n;
  }
  return OkStatus();
}

StatusOr<size_t> ReadFullFd(int fd, char* data, size_t size,
                            Deadline deadline) {
  size_t done = 0;
  while (done < size) {
    if (!deadline.is_infinite()) {
      // Whole milliseconds, rounded up, so a poll that times out has
      // normally reached the deadline; the 10^9 ms cap keeps it an int.
      struct pollfd pfd = {fd, POLLIN, 0};
      const double wait_ms =
          std::ceil(std::clamp(deadline.remaining_millis(), 0.0, 1e9));
      GPUTC_ASSIGN_OR_RETURN(const int ready,
                             PollRetry(&pfd, 1, static_cast<int>(wait_ms)));
      if (ready == 0) {
        if (!deadline.expired()) continue;
        return DeadlineExceededError("read timed out after " +
                                     std::to_string(done) + " of " +
                                     std::to_string(size) + " byte(s)");
      }
    }
    GPUTC_ASSIGN_OR_RETURN(const size_t n,
                           ReadRetry(fd, data + done, size - done));
    if (n == 0) break;  // EOF.
    done += n;
  }
  return done;
}

StatusOr<int> AcceptRetry(int listen_fd) {
  for (;;) {
#if defined(SOCK_CLOEXEC)
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
#else
    const int fd = ::accept(listen_fd, nullptr, nullptr);
#endif
    if (fd >= 0) {
#if !defined(SOCK_CLOEXEC)
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
#endif
      return fd;
    }
    if (errno == EINTR) continue;
    // Nothing pending (non-blocking listener) or the peer gave up between
    // SYN and accept: both mean "no connection right now", not an error.
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return -1;
    }
    return InternalError(std::string("accept: ") + strerror(errno));
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return InternalError(std::string("fcntl(O_NONBLOCK): ") + strerror(errno));
  }
  return OkStatus();
}

std::string ListenSpec::ToString() const {
  if (is_unix) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

StatusOr<ListenSpec> ParseListenSpec(const std::string& spec) {
  ListenSpec out;
  if (spec.rfind("unix:", 0) == 0) {
    out.is_unix = true;
    out.path = spec.substr(5);
    if (out.path.empty()) {
      return InvalidArgumentError("listen spec 'unix:' needs a socket path");
    }
    // sun_path is a fixed ~108-byte field; reject up front instead of
    // letting bind truncate silently.
    if (out.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return InvalidArgumentError("unix socket path '" + out.path +
                                  "' is too long");
    }
    return out;
  }
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return InvalidArgumentError("listen spec '" + spec +
                                "' is neither HOST:PORT nor unix:PATH");
  }
  out.host = spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || port < 0 || port > 65535) {
    return InvalidArgumentError("listen spec '" + spec +
                                "' has an invalid port '" + port_str + "'");
  }
  out.port = static_cast<int>(port);
  return out;
}

namespace {

StatusOr<int> NewSocket(const ListenSpec& spec) {
  const int domain = spec.is_unix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return InternalError(std::string("socket: ") + strerror(errno));
  }
  return fd;
}

/// Fills `*storage` for bind/connect; returns the address length.
StatusOr<socklen_t> FillAddress(const ListenSpec& spec,
                                sockaddr_storage* storage) {
  memset(storage, 0, sizeof(*storage));
  if (spec.is_unix) {
    auto* addr = reinterpret_cast<sockaddr_un*>(storage);
    addr->sun_family = AF_UNIX;
    strncpy(addr->sun_path, spec.path.c_str(), sizeof(addr->sun_path) - 1);
    return static_cast<socklen_t>(sizeof(sockaddr_un));
  }
  auto* addr = reinterpret_cast<sockaddr_in*>(storage);
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(spec.port));
  const std::string host = spec.host.empty() ? "0.0.0.0" : spec.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return InvalidArgumentError("listen host '" + spec.host +
                                "' is not an IPv4 address");
  }
  return static_cast<socklen_t>(sizeof(sockaddr_in));
}

}  // namespace

StatusOr<int> OpenListener(const ListenSpec& spec, int backlog) {
  GPUTC_ASSIGN_OR_RETURN(const int fd, NewSocket(spec));
  sockaddr_storage storage;
  const StatusOr<socklen_t> len = FillAddress(spec, &storage);
  if (!len.ok()) {
    ::close(fd);
    return len.status();
  }
  if (spec.is_unix) {
    // A previous daemon's socket file would make bind fail with EADDRINUSE
    // even though nobody is listening; remove it. A live listener still
    // conflicts — it holds the file and re-creates it.
    ::unlink(spec.path.c_str());
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&storage), *len) != 0) {
    const int saved = errno;
    ::close(fd);
    return InternalError("bind(" + spec.ToString() +
                         "): " + strerror(saved));
  }
  if (::listen(fd, backlog) != 0) {
    const int saved = errno;
    ::close(fd);
    return InternalError("listen(" + spec.ToString() +
                         "): " + strerror(saved));
  }
  const Status nonblocking = SetNonBlocking(fd);
  if (!nonblocking.ok()) {
    ::close(fd);
    return nonblocking;
  }
  return fd;
}

StatusOr<int> ConnectToListener(const ListenSpec& spec) {
  GPUTC_ASSIGN_OR_RETURN(const int fd, NewSocket(spec));
  sockaddr_storage storage;
  const StatusOr<socklen_t> len = FillAddress(spec, &storage);
  if (!len.ok()) {
    ::close(fd);
    return len.status();
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&storage), *len);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int saved = errno;
    ::close(fd);
    return InternalError("connect(" + spec.ToString() +
                         "): " + strerror(saved));
  }
  return fd;
}

}  // namespace gputc
