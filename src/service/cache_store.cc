#include "service/cache_store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <vector>

#include "util/durable_file.h"
#include "util/failpoint.h"

namespace gputc {
namespace {

constexpr char kFileHeader[] = "GPTC-PREP-CACHE-V1\n";
constexpr size_t kFileHeaderLen = sizeof(kFileHeader) - 1;
constexpr char kFilePrefix[] = "prep-";
constexpr char kFileSuffix[] = ".gptc";
/// A framed section can never legitimately exceed this; anything larger is a
/// corrupt length field, not a real artifact.
constexpr uint32_t kMaxSectionBytes = 1u << 30;

/// Checks one EncodeFrame section starting at `*pos` and returns its
/// payload as a view into `bytes`; DataLoss on any truncation or checksum
/// mismatch.
StatusOr<std::string_view> ReadFramed(std::string_view bytes, size_t* pos,
                                      const char* what) {
  if (bytes.size() - *pos < kFrameHeaderBytes) {
    return DataLossError(std::string("cache file truncated before ") + what +
                         " frame header");
  }
  GPUTC_ASSIGN_OR_RETURN(
      const FrameHeader header,
      DecodeFrameHeader(bytes.data() + *pos, kMaxSectionBytes));
  *pos += kFrameHeaderBytes;
  if (header.length > bytes.size() - *pos) {
    return DataLossError(std::string("cache file truncated inside ") + what +
                         " section (" + std::to_string(header.length) +
                         " bytes framed)");
  }
  const std::string_view payload = bytes.substr(*pos, header.length);
  *pos += header.length;
  if (Crc32c(payload) != header.crc) {
    return DataLossError(std::string(what) + " section checksum mismatch");
  }
  return payload;
}

}  // namespace

std::string DiskCacheStore::PathFor(const PrepCacheKey& key) const {
  return dir_ + "/" + kFilePrefix + key.id + kFileSuffix;
}

Status DiskCacheStore::EnsureDir() const {
  struct stat st;
  if (::stat(dir_.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      return InvalidArgumentError("prep-cache path '" + dir_ +
                                  "' exists and is not a directory");
    }
    return OkStatus();
  }
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    return InvalidArgumentError("cannot create prep-cache directory '" +
                                dir_ + "': " + std::strerror(errno));
  }
  return OkStatus();
}

Status DiskCacheStore::CheckDir() const {
  struct stat st;
  if (::stat(dir_.c_str(), &st) != 0) {
    if (errno == ENOENT) {
      return NotFoundError("prep-cache directory '" + dir_ +
                           "' does not exist");
    }
    return FailedPreconditionError("cannot stat prep-cache directory '" +
                                   dir_ + "': " + std::strerror(errno));
  }
  if (!S_ISDIR(st.st_mode)) {
    return InvalidArgumentError("prep-cache path '" + dir_ +
                                "' exists and is not a directory");
  }
  if (::access(dir_.c_str(), R_OK | W_OK | X_OK) != 0) {
    return FailedPreconditionError("prep-cache directory '" + dir_ +
                                   "' is not readable+writable: " +
                                   std::strerror(errno));
  }
  return OkStatus();
}

void DiskCacheStore::RecordOutcome(const Status& status, bool benign) {
  if (status.ok() || benign) {
    breaker_.RecordSuccess();
  } else {
    breaker_.RecordFailure();
  }
}

StatusOr<std::string> DiskCacheStore::Load(const PrepCacheKey& key) {
  // The store is a recoverable boundary by construction — open our own
  // scope so armed cache.* points land here even from un-scoped callers.
  FailPointScope scope;
  // A benched tier-2 answers every load as a miss without touching the
  // disk: tier 1 keeps serving, the request recomputes at worst.
  if (!breaker_.Allow()) {
    return NotFoundError("prep-cache tier-2 breaker open (disk benched)");
  }
  {
    const Status injected = CheckFailPoint("cache.load");
    if (!injected.ok()) {
      RecordOutcome(injected, /*benign=*/false);
      return injected;
    }
  }

  const std::string path = PathFor(key);
  StatusOr<std::string> result = [&]() -> StatusOr<std::string> {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return NotFoundError("no cached artifact at " + path);
    }
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
      return DataLossError("cache file " + path + " is not a regular file");
    }
    // Read straight into one buffer of the opened file's size: the artifact
    // is most of the file, and a request admitted for it holds no other
    // copy of it before decoding.
    const std::streamoff size = in.seekg(0, std::ios::end).tellg();
    if (size < 0 || !in.seekg(0)) {
      return DataLossError("short read of cache file " + path);
    }
    std::string bytes(static_cast<size_t>(size), '\0');
    if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
      return DataLossError("short read of cache file " + path);
    }

    if (bytes.size() < kFileHeaderLen ||
        bytes.compare(0, kFileHeaderLen, kFileHeader) != 0) {
      return DataLossError("cache file " + path + " has a foreign header");
    }
    size_t pos = kFileHeaderLen;
    GPUTC_ASSIGN_OR_RETURN(const std::string_view canonical,
                           ReadFramed(bytes, &pos, "key"));
    if (canonical != key.canonical) {
      // A real 64-bit id collision: the file belongs to another fingerprint.
      // Miss, don't destroy the other key's entry.
      return NotFoundError("cache file " + path +
                           " holds a different fingerprint (id collision)");
    }
    GPUTC_ASSIGN_OR_RETURN(const std::string_view payload,
                           ReadFramed(bytes, &pos, "artifact"));
    if (pos != bytes.size()) {
      return DataLossError("cache file " + path + " has trailing bytes");
    }
    // The artifact is the file's tail: cut the buffer down to it in place.
    bytes.erase(0, static_cast<size_t>(payload.data() - bytes.data()));
    return bytes;
  }();
  // A miss (absent file, id collision) is the disk doing its job, not a
  // fault: only real I/O or corruption failures feed the breaker.
  const bool benign =
      !result.ok() && result.status().code() == StatusCode::kNotFound;
  RecordOutcome(result.ok() ? OkStatus() : result.status(), benign);
  return result;
}

Status DiskCacheStore::Store(const PrepCacheKey& key,
                             std::string_view encoded) {
  FailPointScope scope;
  // Benched tier: skip the disk entirely. The caller treats any store
  // failure as "lost future reuse", never as a failed request.
  if (!breaker_.Allow()) {
    return FailedPreconditionError(
        "prep-cache tier-2 breaker open (store skipped)");
  }
  const Status stored = [&]() -> Status {
    GPUTC_INJECT_FAULT("cache.store");
    GPUTC_RETURN_IF_ERROR(EnsureDir());

    // The artifact follows its frame header as its own write, so a store
    // holds no copy of it beside `encoded`.
    const std::string head = std::string(kFileHeader, kFileHeaderLen) +
                             EncodeFrame(key.canonical) +
                             EncodeFrameHeader(encoded);
    GPUTC_ASSIGN_OR_RETURN(AtomicFileWriter writer,
                           AtomicFileWriter::Create(PathFor(key)));
    GPUTC_RETURN_IF_ERROR(writer.Append(head));
    GPUTC_RETURN_IF_ERROR(writer.Append(encoded));
    return writer.Commit();
  }();
  RecordOutcome(stored, /*benign=*/false);
  return stored;
}

StatusOr<DiskCacheStore::DiskStats> DiskCacheStore::ScanStats() const {
  DiskStats stats;
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) return stats;  // Never-written cache: empty.
    return InvalidArgumentError("cannot open prep-cache directory '" + dir_ +
                                "': " + std::strerror(errno));
  }
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.rfind(kFilePrefix, 0) != 0 ||
        name.size() <= sizeof(kFileSuffix) - 1 ||
        name.compare(name.size() - (sizeof(kFileSuffix) - 1),
                     sizeof(kFileSuffix) - 1, kFileSuffix) != 0) {
      continue;
    }
    struct stat st;
    if (::stat((dir_ + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      ++stats.files;
      stats.bytes += static_cast<int64_t>(st.st_size);
    }
  }
  ::closedir(dir);
  return stats;
}

StatusOr<int64_t> DiskCacheStore::PurgeAll() {
  int64_t removed = 0;
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) return removed;
    return InvalidArgumentError("cannot open prep-cache directory '" + dir_ +
                                "': " + std::strerror(errno));
  }
  std::vector<std::string> victims;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.rfind(kFilePrefix, 0) == 0 &&
        name.size() > sizeof(kFileSuffix) - 1 &&
        name.compare(name.size() - (sizeof(kFileSuffix) - 1),
                     sizeof(kFileSuffix) - 1, kFileSuffix) == 0) {
      victims.push_back(dir_ + "/" + name);
    }
  }
  ::closedir(dir);
  int failures = 0;
  std::string first_error;
  for (const std::string& path : victims) {
    if (::unlink(path.c_str()) == 0) {
      ++removed;
    } else if (errno != ENOENT) {  // Lost a race to another purger: fine.
      ++failures;
      if (first_error.empty()) {
        first_error = "cannot remove '" + path + "': " + std::strerror(errno);
      }
    }
  }
  if (failures > 0) {
    return FailedPreconditionError(
        "purge left " + std::to_string(failures) + " artifact(s) behind (" +
        first_error + ")");
  }
  return removed;
}

TieredPrepCache MakeTieredPrepCache(const std::string& dir, int64_t mb) {
  TieredPrepCache tiers;
  if (dir.empty() && mb <= 0) return tiers;
  if (!dir.empty()) tiers.store = std::make_unique<DiskCacheStore>(dir);
  tiers.cache = std::make_unique<PrepCache>(
      mb > 0 ? mb << 20 : kDefaultPrepCacheBytes, tiers.store.get());
  return tiers;
}

}  // namespace gputc
