#ifndef GPUTC_SERVICE_CACHE_STORE_H_
#define GPUTC_SERVICE_CACHE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "core/prep_cache.h"
#include "service/circuit_breaker.h"
#include "util/status.h"

namespace gputc {

// Tier 2 of the preprocessing cache (`--prep-cache DIR`): one durable file
// per fingerprint, written via AtomicFileWriter so a crash mid-store leaves
// the old artifact (or nothing), never a torn one, and verified on load with
// the same CRC32C discipline as every other artifact the system persists.
//
// On-disk format of `prep-<id>.gptc`:
//
//   "GPTC-PREP-CACHE-V1\n"
//   [u32 key_len][u32 crc32c(key)]      the canonical fingerprint text
//   key bytes
//   [u32 payload_len][u32 crc32c(payload)]
//   payload bytes                       EncodePrepArtifact output
//
// Both sections are util/durable_file frames (EncodeFrame, little-endian
// lengths and checksums), the framing the WAL segments use.
//
// The canonical key inside the file is compared against the requested key on
// load: a 64-bit id collision (two fingerprints, one file name) degrades to
// NotFound — a miss — never to a wrong artifact. Any structural or checksum
// failure is DataLoss, which the PrepCache turns into a recompute + rewrite;
// a bad cache file can cost time, never correctness.
//
// The fail-point sites "cache.load" and "cache.store" are compiled into
// these paths, and the store opens its own FailPointScope like the durable
// layer does: every injection here lands on a path that recovers by design,
// and the crash harness kills the process at exactly these boundaries.
//
// Storage-fault policy: the tier is optional by construction, so a failing
// disk must never fail a request. A per-sink circuit breaker watches
// Load/Store outcomes — after `failure_threshold` consecutive storage
// faults the tier-2 disk is benched (loads miss, stores are skipped, no
// syscalls issued) while tier 1 keeps serving from memory; a half-open
// probe re-admits the disk once it recovers. The breaker is the tier's only
// health signal: a benched tier is not reported to StorageHealthMonitor, so
// it never shows on `/readyz`.
class DiskCacheStore : public PrepCacheStore {
 public:
  /// The store is lazy: nothing touches the filesystem until the first
  /// Load/Store. Call EnsureDir() up front to surface an unusable directory
  /// as a flag error instead of silent per-request store failures.
  /// The breaker options/clock are injectable for tests; the default
  /// cooldown is long enough that a flapping disk is probed at a trickle.
  explicit DiskCacheStore(std::string dir,
                          CircuitBreakerOptions breaker_options =
                              CircuitBreakerOptions{3, 5000.0, 1},
                          std::function<double()> now_ms = {})
      : dir_(std::move(dir)),
        breaker_(breaker_options, std::move(now_ms)) {}

  /// Creates `dir` (one level) if missing; InvalidArgument when the path
  /// exists but is not a directory, or cannot be created.
  Status EnsureDir() const;

  /// Classifies the directory for the CLI cache commands without creating
  /// it: kNotFound when it vanished, kInvalidArgument when the path is not
  /// a directory (a flag error), kFailedPrecondition when it exists but is
  /// not readable+writable. OkStatus when usable.
  Status CheckDir() const;

  /// NotFound when absent (or on an id collision), DataLoss on any framing,
  /// checksum, or truncation failure. Passes the "cache.load" fail point.
  StatusOr<std::string> Load(const PrepCacheKey& key) override;

  /// Atomically writes/replaces the artifact file. Passes the "cache.store"
  /// fail point before any byte is written, so a crash armed there leaves
  /// the previous state intact.
  Status Store(const PrepCacheKey& key, std::string_view encoded) override;

  struct DiskStats {
    int64_t files = 0;
    int64_t bytes = 0;
  };
  /// Counts `prep-*.gptc` files and their total size (zeros for a missing
  /// directory — an empty cache, not an error).
  StatusOr<DiskStats> ScanStats() const;

  /// Deletes every artifact file; returns how many were removed. In-flight
  /// readers are unaffected (unlink semantics); concurrent writers simply
  /// repopulate.
  StatusOr<int64_t> PurgeAll();

  const std::string& dir() const { return dir_; }
  std::string PathFor(const PrepCacheKey& key) const;

  /// The tier-2 breaker (exposed for tests and reporting).
  CircuitBreaker& breaker() { return breaker_; }

 private:
  /// Routes one Load/Store outcome into the breaker. `benign` outcomes (a
  /// miss, an id collision) count as disk successes.
  void RecordOutcome(const Status& status, bool benign);

  std::string dir_;
  CircuitBreaker breaker_;
};

/// The two-tier preprocessing cache `--prep-cache DIR` / `--prep-cache-mb N`
/// ask for: tier 1 in memory, tier 2 in `store` when a directory is set.
/// `store` is declared first so it outlives the cache that points at it.
struct TieredPrepCache {
  std::unique_ptr<DiskCacheStore> store;
  std::unique_ptr<PrepCache> cache;
};

/// Builds that cache; `cache` stays null when `dir` is empty and `mb` <= 0.
/// Tier 1 holds `mb` MiB, or kDefaultPrepCacheBytes when `mb` <= 0, so
/// asking only for the durable tier never disables coalescing.
TieredPrepCache MakeTieredPrepCache(const std::string& dir, int64_t mb);

}  // namespace gputc

#endif  // GPUTC_SERVICE_CACHE_STORE_H_
