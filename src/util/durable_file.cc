#include "util/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "util/failpoint.h"
#include "util/fs_io.h"
#include "util/logging.h"

namespace gputc {
namespace {

/// Sanity cap on one record, so a garbage length field in a damaged segment
/// cannot drive a multi-gigabyte allocation during recovery.
constexpr uint32_t kMaxRecordBytes = 1u << 30;

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return ErrnoToStatus(errno, op + " '" + path + "'");
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Best-effort directory fsync: the rename is only durable once the parent
/// directory's entry is on disk. Some filesystems refuse fsync on a
/// directory fd; that is not a data-integrity failure, so it only warns.
void SyncParentDir(const std::string& path) {
  const std::string dir = ParentDir(path);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return;
  if (::fsync(dir_fd) != 0) {
    GPUTC_LOG(Warning) << "fsync on directory '" << dir
                       << "' failed: " << std::strerror(errno);
  }
  ::close(dir_fd);
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

uint32_t Crc32cTable(const void* data, size_t size, uint32_t seed) {
  // Slice-by-one table for the Castagnoli polynomial (reflected 0x82F63B78),
  // built once.
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      table[i] = crc;
    }
    return table;
  }();
  uint32_t crc = ~seed;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

bool Crc32cSse42Available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// Compiled for SSE4.2 on its own, so the build needs no global -m flag and
// the binary still runs on CPUs without it; Crc32c calls this only after the
// CPUID check. The crc32 instruction uses the same reflected polynomial and
// consumes a little-endian word as its bytes in memory order, so eight bytes
// per step give the table's result.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t size,
                                                       uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~seed;
  for (; size >= sizeof(uint64_t); size -= sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += sizeof(word);
  }
  uint32_t tail = static_cast<uint32_t>(crc);
  for (; size > 0; --size) tail = _mm_crc32_u8(tail, *p++);
  return ~tail;
}

#else

bool Crc32cSse42Available() { return false; }

uint32_t Crc32cSse42(const void* data, size_t size, uint32_t seed) {
  return Crc32cTable(data, size, seed);
}

#endif

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  static const bool kSse42 = Crc32cSse42Available();
  return kSse42 ? Crc32cSse42(data, size, seed)
                : Crc32cTable(data, size, seed);
}

std::string EncodeFrame(std::string_view payload) {
  std::string frame = EncodeFrameHeader(payload);
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(payload.data(), payload.size());
  return frame;
}

std::string EncodeFrameHeader(std::string_view payload) {
  std::string header;
  PutU32(&header, static_cast<uint32_t>(payload.size()));
  PutU32(&header, Crc32c(payload));
  return header;
}

StatusOr<FrameHeader> DecodeFrameHeader(const char* header,
                                        uint32_t max_payload) {
  FrameHeader decoded;
  decoded.length = GetU32(header);
  decoded.crc = GetU32(header + 4);
  if (decoded.length == 0 || decoded.length > max_payload) {
    return DataLossError("corrupt frame header: payload length " +
                         std::to_string(decoded.length));
  }
  return decoded;
}

// -- AtomicFileWriter ---------------------------------------------------------

StatusOr<AtomicFileWriter> AtomicFileWriter::Create(const std::string& path) {
  if (path.empty()) return InvalidArgumentError("empty path");
  // pid + per-process sequence: two concurrent writers targeting the same
  // path must not share a temp file, or they would interleave content and
  // the loser's rename would publish the mix.
  static std::atomic<uint64_t> temp_seq{0};
  std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                     std::to_string(temp_seq.fetch_add(1));
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("cannot create temp file", temp);
  return AtomicFileWriter(fd, std::move(temp), path);
}

AtomicFileWriter::~AtomicFileWriter() {
  if (fd_ >= 0 || (!committed_ && !temp_path_.empty())) Abort();
}

AtomicFileWriter::AtomicFileWriter(AtomicFileWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      temp_path_(std::move(other.temp_path_)),
      final_path_(std::move(other.final_path_)),
      committed_(std::exchange(other.committed_, true)) {
  other.temp_path_.clear();
}

AtomicFileWriter& AtomicFileWriter::operator=(
    AtomicFileWriter&& other) noexcept {
  if (this != &other) {
    Abort();
    fd_ = std::exchange(other.fd_, -1);
    temp_path_ = std::move(other.temp_path_);
    final_path_ = std::move(other.final_path_);
    committed_ = std::exchange(other.committed_, true);
    other.temp_path_.clear();
  }
  return *this;
}

Status AtomicFileWriter::Append(const void* data, size_t size) {
  if (fd_ < 0) return InternalError("Append on a finished AtomicFileWriter");
  const Status written = FsWriteFully(fd_, data, size, temp_path_);
  if (!written.ok()) {
    // ENOSPC mid-write: the temp file must not linger (it is occupying the
    // very space that ran out) and the target stays untouched. Abort here so
    // every error path — not just the destructor — leaves a clean directory.
    Abort();
  }
  return written;
}

Status AtomicFileWriter::Commit() {
  if (committed_) return InternalError("Commit called twice");
  if (fd_ < 0) return InternalError("Commit after Abort");
  // The durable layer is recoverable by design, so it opts into fault
  // injection on its own: a crash armed here leaves the target file
  // untouched and only an orphan temp — exactly the state recovery handles.
  FailPointScope scope;
  {
    const Status injected = CheckFailPoint("durable.commit");
    if (!injected.ok()) {
      Abort();
      return injected.WithContext("durable.commit('" + final_path_ + "')");
    }
  }
  {
    // fsyncgate: a failed fsync may have dropped the dirty pages, so the
    // temp file cannot be salvaged — unlink it and report. No retry.
    const Status synced = FsFsync(fd_, temp_path_);
    if (!synced.ok()) {
      Abort();
      return synced;
    }
  }
  ::close(fd_);
  fd_ = -1;
  {
    const Status renamed = FsRename(temp_path_, final_path_);
    if (!renamed.ok()) {
      ::unlink(temp_path_.c_str());
      committed_ = true;  // Nothing further to clean up.
      return renamed;
    }
  }
  SyncParentDir(final_path_);
  committed_ = true;
  return OkStatus();
}

void AtomicFileWriter::Abort() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!committed_ && !temp_path_.empty()) {
    ::unlink(temp_path_.c_str());
  }
  committed_ = true;
}

Status WriteFileAtomic(const std::string& path, std::string_view content) {
  GPUTC_ASSIGN_OR_RETURN(AtomicFileWriter writer,
                         AtomicFileWriter::Create(path));
  GPUTC_RETURN_IF_ERROR(writer.Append(content));
  return writer.Commit();
}

// -- Segment log --------------------------------------------------------------

StatusOr<SegmentScan> ScanSegment(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open segment '" + path + "'");
  in.seekg(0, std::ios::end);
  const auto end_pos = in.tellg();
  if (end_pos < 0) {
    return DataLossError("cannot size segment '" + path + "'");
  }
  const uint64_t total = static_cast<uint64_t>(end_pos);
  in.seekg(0, std::ios::beg);

  // Stream frame by frame: long-running WALs grow without bound, so the
  // scan must not buffer the whole file (let alone copy it twice).
  SegmentScan scan;
  uint64_t pos = 0;
  char header[kFrameHeaderBytes];
  std::string payload;
  while (total - pos >= kFrameHeaderBytes) {
    in.read(header, kFrameHeaderBytes);
    if (in.gcount() != static_cast<std::streamsize>(kFrameHeaderBytes)) break;
    // A zero length is a crash-extended tail whose blocks were never written
    // (file length grew, data reads back as zeros), not a record; a garbage
    // length is an untrusted tail.
    const StatusOr<FrameHeader> frame =
        DecodeFrameHeader(header, kMaxRecordBytes);
    if (!frame.ok()) break;
    const uint32_t len = frame->length;
    if (total - pos - kFrameHeaderBytes < len) break;  // Torn payload.
    payload.resize(len);
    in.read(payload.data(), static_cast<std::streamsize>(len));
    if (in.gcount() != static_cast<std::streamsize>(len)) break;
    if (Crc32c(payload) != frame->crc) break;  // Corrupt frame.
    scan.records.push_back(payload);
    pos += kFrameHeaderBytes + len;
  }
  if (in.bad()) {
    return DataLossError("stream failed while reading segment '" + path +
                         "'");
  }
  scan.valid_bytes = pos;
  scan.dropped_bytes = total - pos;
  return scan;
}

StatusOr<SegmentWriter> SegmentWriter::Open(const std::string& path) {
  SegmentScan recovered;
  StatusOr<SegmentScan> scan = ScanSegment(path);
  if (scan.ok()) {
    recovered = *std::move(scan);
    if (recovered.dropped_bytes > 0) {
      // Torn tail from a crash mid-append: truncate back to the last intact
      // record so the next append continues from a verified prefix.
      GPUTC_LOG(Warning) << "segment '" << path << "': dropping "
                         << recovered.dropped_bytes
                         << " torn tail byte(s) after "
                         << recovered.records.size() << " intact record(s)";
      if (::truncate(path.c_str(),
                     static_cast<off_t>(recovered.valid_bytes)) != 0) {
        return ErrnoStatus("cannot truncate torn tail of", path);
      }
    }
  } else if (scan.status().code() != StatusCode::kNotFound) {
    return scan.status();
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("cannot open segment", path);
  return SegmentWriter(fd, path, std::move(recovered));
}

SegmentWriter::~SegmentWriter() {
  if (fd_ >= 0) ::close(fd_);
}

SegmentWriter::SegmentWriter(SegmentWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      recovered_(std::move(other.recovered_)),
      poison_(std::move(other.poison_)),
      state_mu_(std::move(other.state_mu_)) {}

SegmentWriter& SegmentWriter::operator=(SegmentWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    recovered_ = std::move(other.recovered_);
    poison_ = std::move(other.poison_);
    state_mu_ = std::move(other.state_mu_);
  }
  return *this;
}

Status SegmentWriter::poisoned() const {
  if (state_mu_ == nullptr) return OkStatus();  // Moved-from.
  std::lock_guard<std::mutex> lock(*state_mu_);
  return poison_;
}

Status SegmentWriter::Append(std::string_view payload) {
  if (fd_ < 0) return InternalError("Append on a moved-from SegmentWriter");
  if (payload.empty()) {
    // An empty record's frame is eight zero bytes — exactly what a
    // zero-filled crash tail reads back as, so the scanner treats that
    // header as end-of-log and a real empty record would vanish on replay.
    return InvalidArgumentError("empty segment records are not supported");
  }
  if (payload.size() > kMaxRecordBytes) {
    return InvalidArgumentError("segment record of " +
                                std::to_string(payload.size()) +
                                " bytes exceeds the frame cap");
  }
  // One writer at a time: the frame goes out in two write(2)s (see below),
  // and interleaving frames from concurrent appenders would corrupt the log
  // mid-record — recovery would then silently drop every record after the
  // interleave point.
  std::lock_guard<std::mutex> lock(*state_mu_);
  if (!poison_.ok()) {
    return poison_.WithContext("poisoned segment '" + path_ + "'");
  }
  FailPointScope scope;
  GPUTC_RETURN_IF_ERROR(
      CheckFailPoint("durable.append").WithContext("append('" + path_ + "')"));

  const std::string frame = EncodeFrame(payload);

  // The rollback point for a torn write: the fd is O_APPEND, so the current
  // size is where this frame starts.
  const off_t frame_start = ::lseek(fd_, 0, SEEK_END);

  // Split the frame so an armed "durable.append.torn" crash produces a
  // genuinely torn record — header plus partial payload — for the recovery
  // path to truncate. Unarmed, this is just two sequential writes.
  const size_t split = kFrameHeaderBytes + payload.size() / 2;
  Status written = FsWriteFully(fd_, frame.data(), split, path_);
  if (written.ok()) {
    const Status injected = CheckFailPoint("durable.append.torn");
    if (!injected.ok()) {
      // An injected *error* (rather than a crash) intentionally leaves the
      // torn prefix in place; the next Open truncates it.
      return injected.WithContext("torn append('" + path_ + "')");
    }
    written =
        FsWriteFully(fd_, frame.data() + split, frame.size() - split, path_);
  }
  if (!written.ok()) {
    // A torn frame mid-log would make the scanner drop every record after
    // it, so the tear cannot be left for later appends to bury: roll the
    // file back to the frame start. A failed rollback poisons the writer —
    // appending after an unremovable tear would silently lose records.
    if (frame_start >= 0 && ::ftruncate(fd_, frame_start) == 0) {
      return written;
    }
    poison_ = written;
    return written.WithContext("segment '" + path_ +
                               "' poisoned (torn frame could not be rolled "
                               "back)");
  }
  {
    const Status synced = FsFsync(fd_, path_);
    if (!synced.ok()) {
      // fsyncgate: the kernel may have dropped this frame's dirty pages and
      // cleared the error, so no later fsync on this fd can be trusted.
      // Poison the writer; the owner must reopen or fail the record.
      poison_ = synced;
      return synced;
    }
  }
  return OkStatus();
}

// -- LineLog ------------------------------------------------------------------

StatusOr<LineLog> LineLog::OpenTrunc(const std::string& path,
                                     bool fsync_each) {
  GPUTC_ASSIGN_OR_RETURN(const int fd,
                         FsOpen(path, O_WRONLY | O_CREAT | O_TRUNC, 0644));
  return LineLog(fd, path, fsync_each);
}

LineLog::~LineLog() {
  if (fd_ >= 0) ::close(fd_);
}

LineLog::LineLog(LineLog&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      fsync_each_(other.fsync_each_),
      offset_(other.offset_),
      poison_(std::move(other.poison_)) {}

LineLog& LineLog::operator=(LineLog&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    fsync_each_ = other.fsync_each_;
    offset_ = other.offset_;
    poison_ = std::move(other.poison_);
  }
  return *this;
}

Status LineLog::WriteLine(std::string_view line) {
  if (fd_ < 0) return InternalError("WriteLine on a moved-from LineLog");
  if (!poison_.ok()) {
    return poison_.WithContext("poisoned journal '" + path_ + "'");
  }
  std::string buffer;
  buffer.reserve(line.size() + 1);
  buffer.append(line.data(), line.size());
  buffer.push_back('\n');
  const Status written =
      FsWriteFully(fd_, buffer.data(), buffer.size(), path_);
  if (!written.ok()) {
    // All-or-nothing: a short write (ENOSPC mid-line) must not leave a torn
    // half-line for a journal consumer to choke on. Roll back to the last
    // complete line; if even that fails, poison — appending after an
    // unremovable tear would corrupt every following line. ftruncate leaves
    // the fd position past the cut, so reseek or the next line would sit
    // behind a hole of NUL bytes.
    if (::ftruncate(fd_, static_cast<off_t>(offset_)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(offset_), SEEK_SET) < 0) {
      poison_ = written;
      return written.WithContext("journal '" + path_ +
                                 "' poisoned (torn line could not be rolled "
                                 "back)");
    }
    return written;
  }
  if (fsync_each_) {
    const Status synced = FsFsync(fd_, path_);
    if (!synced.ok()) {
      // fsyncgate: this fd can no longer prove durability — poison it.
      poison_ = synced;
      return synced;
    }
  }
  offset_ += buffer.size();
  return OkStatus();
}

}  // namespace gputc
