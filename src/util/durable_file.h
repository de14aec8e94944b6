#ifndef GPUTC_UTIL_DURABLE_FILE_H_
#define GPUTC_UTIL_DURABLE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace gputc {

// Crash-safe file primitives shared by every artifact the system emits:
// binary graphs, batch journals, the write-ahead log, trace and metrics
// exports. Two write disciplines cover all of them:
//
//  * AtomicFileWriter / WriteFileAtomic — whole-file replacement with the
//    classic write-temp -> fsync -> rename -> fsync-directory protocol.
//    Readers never observe a torn file: they see the old content or the new
//    content, nothing in between, even across SIGKILL or power loss.
//
//  * SegmentWriter / ScanSegment — an append-only record log with per-record
//    CRC32C framing. A crash mid-append leaves a torn tail, which Open
//    detects and truncates back to the last intact record; everything before
//    the tear is trusted because its checksums still verify.
//
// The fail-point sites "durable.commit", "durable.append" and
// "durable.append.torn" are compiled into these paths. The durable layer
// opens its own FailPointScope — unlike ordinary library code, every
// injection here lands on a path that is recoverable *by design*, and the
// crash harness depends on being able to kill the process at exactly these
// boundaries.
//
// All syscalls go through util/fs_io.h, so the storage-fault sites
// (fs.write, fs.write.short, fs.fsync, ...) inject beneath every writer
// here. Fault semantics follow the fsyncgate rule: after any fsync failure
// the fd is poisoned — the writer never fsyncs it again (the kernel may have
// dropped the dirty pages and a retry would falsely succeed) and every
// subsequent operation fails fast with the original fault until the caller
// reopens. Failed writes roll back (ftruncate to the record start) where
// the file must stay clean — a journal never keeps a torn half-line — and
// poison the sink when even the rollback fails.

/// CRC32C (Castagnoli polynomial, as used by ext4, RocksDB, and gRPC).
/// `seed` chains partial computations: Crc32c(b, nb, Crc32c(a, na)).
/// Runs on the SSE4.2 crc32 instruction when the CPU has it (checked once)
/// and on a lookup table otherwise; both give the same value for every input.
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);
inline uint32_t Crc32c(std::string_view data, uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

// The two implementations Crc32c chooses between, declared so tests can check
// each one. Callers use Crc32c.

/// The table implementation; the only one on CPUs without SSE4.2 and off
/// x86-64.
uint32_t Crc32cTable(const void* data, size_t size, uint32_t seed);
/// True when this CPU runs Crc32cSse42 in hardware (x86-64 with SSE4.2).
bool Crc32cSse42Available();
/// The crc32-instruction implementation. Call only when
/// Crc32cSse42Available(); off x86-64 it is the table implementation.
uint32_t Crc32cSse42(const void* data, size_t size, uint32_t seed);

/// One record frame: [u32 payload_len][u32 crc32c(payload)][payload], little
/// endian. The segment log stores its records in it and the worker pipes
/// carry their messages in it. Payloads are never empty, so an all-zero
/// header (a crash-extended tail whose blocks were never written) is never a
/// frame.
inline constexpr size_t kFrameHeaderBytes = 2 * sizeof(uint32_t);

/// Header + payload of the frame carrying `payload`.
std::string EncodeFrame(std::string_view payload);

/// Only the kFrameHeaderBytes of that frame, for a writer that streams a
/// large payload after it instead of copying it into one buffer.
std::string EncodeFrameHeader(std::string_view payload);

struct FrameHeader {
  uint32_t length = 0;  // Payload bytes that follow the header.
  uint32_t crc = 0;     // CRC32C of those bytes.
};

/// Decodes the kFrameHeaderBytes at `header`. DataLoss when the payload
/// length is 0 or above `max_payload`, so a torn or foreign header can
/// neither pass for a frame nor drive a giant allocation.
StatusOr<FrameHeader> DecodeFrameHeader(const char* header,
                                        uint32_t max_payload);

/// Atomic whole-file replacement. Writes stream into
/// `<path>.tmp.<pid>.<seq>` (the sequence number keeps concurrent writers
/// targeting the same path in one process from clobbering each other's temp
/// file); Commit fsyncs the temp file, renames it over `path`, and fsyncs
/// the parent directory so the rename itself is durable. Destroying an
/// uncommitted writer unlinks the temp file.
class AtomicFileWriter {
 public:
  static StatusOr<AtomicFileWriter> Create(const std::string& path);
  ~AtomicFileWriter();

  AtomicFileWriter(AtomicFileWriter&& other) noexcept;
  AtomicFileWriter& operator=(AtomicFileWriter&& other) noexcept;
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Writes into the temp file. On any failure (ENOSPC mid-write included)
  /// the temp file is unlinked on the spot and the target stays untouched;
  /// the writer is dead afterwards — further Append/Commit calls fail.
  Status Append(const void* data, size_t size);
  Status Append(std::string_view data) {
    return Append(data.data(), data.size());
  }

  /// fsync + rename + directory fsync. Passes the "durable.commit" fail
  /// point *before* the rename, so a crash armed there leaves the target
  /// untouched and only a temp file behind. On any failure the temp file is
  /// unlinked and the target stays untouched.
  Status Commit();

  /// Discards the temp file. Idempotent; Commit after Abort is an error.
  void Abort();

 private:
  AtomicFileWriter(int fd, std::string temp_path, std::string final_path)
      : fd_(fd),
        temp_path_(std::move(temp_path)),
        final_path_(std::move(final_path)) {}

  int fd_ = -1;
  std::string temp_path_;
  std::string final_path_;
  bool committed_ = false;
};

/// One-shot atomic write of `content` to `path`.
Status WriteFileAtomic(const std::string& path, std::string_view content);

/// What a scan of an append-only segment found. `dropped_bytes` counts the
/// torn or corrupt tail after the last intact record; the records before it
/// verified their checksums and are safe to trust.
struct SegmentScan {
  std::vector<std::string> records;
  uint64_t valid_bytes = 0;
  uint64_t dropped_bytes = 0;
};

/// Reads every intact record of the segment at `path`, streaming one frame
/// at a time (the file is never buffered whole). Scanning stops at the first
/// frame that is incomplete, fails its checksum, or has an all-zero header —
/// a crash can only tear the tail, and a crash-extended file whose blocks
/// were never written reads back as zeros, so nothing after either is
/// trusted. (Empty payloads are rejected by Append precisely so a zero
/// header can never be a real record.) kNotFound when the file does not
/// exist.
StatusOr<SegmentScan> ScanSegment(const std::string& path);

/// Append-only CRC-framed record log. Open recovers the segment first —
/// truncating any torn tail back to the last intact record — so appends
/// always continue from a verified prefix. Every Append is fsynced before
/// it returns: a record handed back OK survives SIGKILL and power loss.
/// Append is thread-safe: concurrent appends serialize on an internal
/// mutex, so frames from different threads never interleave mid-record.
class SegmentWriter {
 public:
  static StatusOr<SegmentWriter> Open(const std::string& path);
  ~SegmentWriter();

  SegmentWriter(SegmentWriter&& other) noexcept;
  SegmentWriter& operator=(SegmentWriter&& other) noexcept;
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Appends one framed record and fsyncs; safe to call from multiple
  /// threads. Empty payloads are rejected (their frame would be
  /// indistinguishable from a zero-filled crash tail). Passes
  /// "durable.append" before writing anything and "durable.append.torn"
  /// after a deliberate partial write, so a crash armed at the latter leaves
  /// a real torn tail for the recovery path to exercise.
  Status Append(std::string_view payload);

  /// Records recovered (still present) when the segment was opened.
  const SegmentScan& recovered() const { return recovered_; }
  const std::string& path() const { return path_; }

  /// Non-OK once the writer is poisoned: a failed fsync (fsyncgate — the
  /// kernel may have dropped the dirty pages, so no further fsync can be
  /// trusted) or a failed rollback after a torn write. Every Append after
  /// poisoning fails fast with this status; the owner must reopen.
  Status poisoned() const;

 private:
  SegmentWriter(int fd, std::string path, SegmentScan recovered)
      : fd_(fd),
        path_(std::move(path)),
        recovered_(std::move(recovered)),
        state_mu_(std::make_unique<std::mutex>()) {}

  int fd_ = -1;
  std::string path_;
  SegmentScan recovered_;
  Status poison_;
  /// Serializes Append across threads: a frame is written in (deliberately)
  /// more than one write(2), and interleaved frames from two threads would
  /// corrupt the log mid-record, not just at the tail. Also guards poison_.
  std::unique_ptr<std::mutex> state_mu_;
};

/// Line-oriented streaming log for the batch journal: each WriteLine issues
/// one write(2) of "line\n" and, when `fsync_each` is set, an fsync — so a
/// journal line handed back OK has reached the disk before the caller moves
/// on. OpenTrunc truncates (resume rewrites the journal from its replayed
/// prefix, keeping exactly one line per request).
///
/// Short-write discipline: a line is all-or-nothing. When the write fails
/// partway (ENOSPC mid-line), WriteLine rolls the file back to the line
/// start with ftruncate — the journal never keeps a torn half-line. If even
/// the rollback fails, or an fsync fails (fsyncgate: the fd can no longer
/// be trusted), the log is poisoned and every later WriteLine fails fast.
class LineLog {
 public:
  static StatusOr<LineLog> OpenTrunc(const std::string& path, bool fsync_each);
  ~LineLog();

  LineLog(LineLog&& other) noexcept;
  LineLog& operator=(LineLog&& other) noexcept;
  LineLog(const LineLog&) = delete;
  LineLog& operator=(const LineLog&) = delete;

  Status WriteLine(std::string_view line);

  /// Non-OK once the log is poisoned (failed rollback or failed fsync).
  const Status& poisoned() const { return poison_; }

 private:
  LineLog(int fd, std::string path, bool fsync_each)
      : fd_(fd), path_(std::move(path)), fsync_each_(fsync_each) {}

  int fd_ = -1;
  std::string path_;
  bool fsync_each_ = false;
  /// Bytes of intact, complete lines — the rollback point for a torn write.
  uint64_t offset_ = 0;
  Status poison_;
};

}  // namespace gputc

#endif  // GPUTC_UTIL_DURABLE_FILE_H_
