#ifndef GPUTC_UTIL_NET_IO_H_
#define GPUTC_UTIL_NET_IO_H_

#include <poll.h>

#include <cstddef>
#include <string>

#include "util/deadline.h"
#include "util/status.h"

namespace gputc {

// EINTR-safe descriptor I/O, shared by every poll/read/write/accept call
// site in the tree (worker pipes, the serve daemon, tests). Signal-heavy
// paths — the drain ladder forwards SIGTERM/SIGINT/SIGHUP through the whole
// process — make bare syscalls a latent bug: an EINTR surfacing as a
// spurious I/O error turns a graceful drain into a failed request. Every
// helper here retries EINTR and reports everything else as a Status, so
// callers never see the interrupt at all.

/// poll(2), retried on EINTR. Returns the number of ready descriptors (0 on
/// timeout); Internal on any other error. `timeout_ms < 0` blocks forever.
StatusOr<int> PollRetry(struct pollfd* fds, size_t nfds, int timeout_ms);

/// read(2) of up to `size` bytes, retried on EINTR. Returns the byte count
/// (0 = EOF). Sets `*would_block` (when non-null) instead of erroring on
/// EAGAIN/EWOULDBLOCK from a non-blocking descriptor.
StatusOr<size_t> ReadRetry(int fd, char* data, size_t size,
                           bool* would_block = nullptr);

/// write(2) of up to `size` bytes, retried on EINTR. Returns the byte count
/// actually written (a short write is not an error; loop or use WriteAllFd).
/// Sets `*would_block` (when non-null) on EAGAIN/EWOULDBLOCK; EPIPE is
/// FailedPrecondition (the peer is gone — retriable elsewhere, see
/// worker_process.cc).
StatusOr<size_t> WriteRetry(int fd, const char* data, size_t size,
                            bool* would_block = nullptr);

/// send(2) with MSG_NOSIGNAL, retried on EINTR — the socket flavor of
/// WriteRetry. A peer that disconnected mid-response surfaces as a
/// FailedPrecondition status instead of a process-killing SIGPIPE, so the
/// serve daemon (and any embedder that never touched signal dispositions)
/// survives client departures by construction. Sockets only.
StatusOr<size_t> SendRetry(int fd, const char* data, size_t size,
                           bool* would_block = nullptr);

/// Writes exactly `size` bytes (EINTR- and partial-write-safe). EPIPE is
/// FailedPrecondition, everything else Internal. Blocking descriptors only.
Status WriteAllFd(int fd, const char* data, size_t size);

/// Reads exactly `size` bytes (EINTR- and partial-read-safe). Returns the
/// byte count actually read: `size` on success, 0 on clean EOF before any
/// byte, in between when the peer died mid-message. DeadlineExceeded when
/// `deadline` passes before all `size` bytes arrive, however many did.
/// Blocking fds only.
StatusOr<size_t> ReadFullFd(int fd, char* data, size_t size,
                            Deadline deadline = Deadline::Infinite());

/// accept(2), retried on EINTR, with O_CLOEXEC on the accepted descriptor.
/// Returns the new fd, or -1 when a non-blocking listener has nothing
/// pending (EAGAIN) or the connection aborted before accept (ECONNABORTED).
StatusOr<int> AcceptRetry(int listen_fd);

/// Puts `fd` into non-blocking mode.
Status SetNonBlocking(int fd);

// -- listeners --------------------------------------------------------------

/// A parsed `--listen` value: "HOST:PORT" (TCP) or "unix:PATH".
struct ListenSpec {
  bool is_unix = false;
  std::string host;  // TCP only.
  int port = 0;      // TCP only.
  std::string path;  // Unix only.

  /// Canonical display form ("127.0.0.1:7171" or "unix:/tmp/s.sock").
  std::string ToString() const;
};

/// Parses "HOST:PORT" or "unix:PATH". InvalidArgument on anything else
/// (missing port, non-numeric port, empty path).
StatusOr<ListenSpec> ParseListenSpec(const std::string& spec);

/// Binds and listens on `spec` (backlog `backlog`), non-blocking, CLOEXEC.
/// A stale unix-domain socket file is unlinked before bind. Returns the
/// listening descriptor.
StatusOr<int> OpenListener(const ListenSpec& spec, int backlog = 64);

/// Connects a blocking client socket to `spec` (test/client helper).
StatusOr<int> ConnectToListener(const ListenSpec& spec);

}  // namespace gputc

#endif  // GPUTC_UTIL_NET_IO_H_
