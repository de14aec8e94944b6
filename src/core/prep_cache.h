#ifndef GPUTC_CORE_PREP_CACHE_H_
#define GPUTC_CORE_PREP_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/preprocess.h"
#include "graph/graph.h"
#include "graph/permutation.h"
#include "graph/types.h"
#include "sim/device.h"
#include "util/deadline.h"
#include "util/status.h"

namespace gputc {

// Content-addressed cache of the paper's preprocessing layer. The whole
// contribution of A-direction + A-order + calibration is that it is computed
// once per (graph, device, options) and reused by any downstream counter —
// this cache makes that reuse real at serving scale: a request whose
// fingerprint was seen before skips the direction/ordering/calibration
// recompute entirely and rebuilds the preprocessed graph from the cached
// artifact.
//
// Two tiers:
//  * tier 1 — in-process sharded LRU over decoded artifacts, bounded by a
//    byte budget, with single-flight dedup: concurrent requests for the same
//    key block on one computation instead of racing N identical ones
//    (critical under `gputc batch --jobs` / `gputc serve` fan-in).
//  * tier 2 — an optional durable store (service/cache_store.h) behind the
//    PrepCacheStore interface; consulted on a tier-1 miss and populated
//    after a fill. Corruption there is *never* an error for the caller: a
//    DataLoss load falls back to recompute and the artifact is re-written.
//
// Keys are content fingerprints, not names: the CRC digest of the graph's
// CSR sections (the same Crc32c the v2 binary format frames them with),
// every PreprocessOptions field that changes the artifact, the full
// calibration DeviceSpec, and a code-schema version — so a one-edge edit, a
// flag flip, a different device, or an artifact-format change each miss
// cleanly instead of aliasing.

/// Bump when the artifact contents or the fingerprint inputs change shape:
/// old cache entries (tier 1 and tier 2) become unreachable instead of being
/// misinterpreted.
inline constexpr int kPrepCacheSchemaVersion = 3;

/// Tier-1 byte budget used when a caller enables the cache without sizing it
/// (`--prep-cache DIR` with no `--prep-cache-mb`).
inline constexpr int64_t kDefaultPrepCacheBytes = int64_t{256} << 20;

/// Everything preprocessing produces that is worth reusing: the oriented +
/// relabeled CSR the counters consume, the vertex permutation, Fox's edge
/// order, the model's lambda, and the cost diagnostics. Deliberately
/// *excludes* timings — those describe one run, not the artifact.
struct PrepArtifact {
  /// CSR of the preprocessed DirectedGraph (post-orientation,
  /// post-relabeling) — DirectedGraph::FromParts(offsets, adj) rebuilds it
  /// byte-for-byte identically to the original compute.
  std::vector<EdgeCount> offsets;
  std::vector<VertexId> adj;
  /// old id -> new id mapping the relabeling applied.
  Permutation vertex_perm;
  /// Fox's edge order under OrderingStrategy::kAOrderEdges (one entry per
  /// arc, each below the arc count); empty under every other ordering.
  std::vector<int64_t> edge_order;
  double lambda = 0.0;          // The resource model's lambda.
  double direction_cost = 0.0;  // Eq. 1 of the cached orientation.
  double ordering_cost = 0.0;   // Eq. 3 of the cached ordering.

  /// Heap bytes this artifact pins in tier 1 (the LRU accounting unit).
  int64_t ByteSize() const;
};

/// Compact binary encoding (magic + schema version + sized sections). The
/// cache is a same-machine artifact — encoding is host-endian and the
/// tier-2 store protects the bytes with CRC framing, not portability.
std::string EncodePrepArtifact(const PrepArtifact& artifact);

/// InvalidArgument on a foreign or truncated buffer, or on sections of the
/// wrong shape (offsets that do not frame the adjacency, a permutation not
/// sized to the vertices, an edge order neither empty nor one entry per arc,
/// or an edge-order entry not below the arc count); never a partial
/// artifact.
StatusOr<PrepArtifact> DecodePrepArtifact(std::string_view bytes);

/// A resolved cache key. `canonical` is the full human-readable fingerprint
/// (the equality key — collision-free by construction); `hash`/`id` are
/// derived digests for shard selection and tier-2 file naming. Tier 2 stores
/// `canonical` inside the artifact file and verifies it on load, so an id
/// collision degrades to a miss, never to a wrong artifact.
struct PrepCacheKey {
  std::string canonical;
  uint64_t hash = 0;
  std::string id;  // 16 hex digits, filesystem-safe.
};

/// Fingerprints (graph, device, options). Costs one CRC pass over the CSR
/// arrays — noise next to the preprocessing it stands in for. The
/// `prep_cache` pointer itself is excluded; every field that changes the
/// artifact (direction, ordering, bucket size, sort flag, calibrate, seed,
/// full DeviceSpec) is included, which is exactly why the executor's
/// degradation ladder keys each rung separately: DegradedOptions edits those
/// fields, so each variant lands on its own entry.
PrepCacheKey PrepFingerprint(const Graph& g, const DeviceSpec& spec,
                             const PreprocessOptions& options);

/// Tier-2 backing store interface (implemented by service/cache_store.h's
/// DiskCacheStore; core stays below the service layer). Load returns the
/// encoded artifact bytes, NotFound when absent, DataLoss when present but
/// corrupt — the cache treats both as a miss, and re-Stores after refill.
class PrepCacheStore {
 public:
  virtual ~PrepCacheStore() = default;
  virtual StatusOr<std::string> Load(const PrepCacheKey& key) = 0;
  virtual Status Store(const PrepCacheKey& key, std::string_view encoded) = 0;
};

/// Point-in-time counters for `gputc cache stats`, tests, and the bench.
struct PrepCacheStats {
  int64_t memory_hits = 0;
  int64_t disk_hits = 0;
  int64_t misses = 0;          // Fills actually computed.
  int64_t evictions = 0;
  int64_t load_errors = 0;     // Tier-2 DataLoss, recovered by recompute.
  int64_t store_errors = 0;    // Tier-2 write failures, result unaffected.
  int64_t coalesced_waits = 0; // Callers that piggybacked on another's fill.
  int64_t resident_bytes = 0;
  int64_t resident_entries = 0;
};

class PrepCache {
 public:
  using FillFn = std::function<StatusOr<PrepArtifact>()>;

  /// `byte_budget` bounds tier-1 resident artifact bytes (<= 0 = unbounded);
  /// `store` (optional, not owned, must outlive the cache) is tier 2.
  /// `shards` splits the LRU to cut lock contention; eviction enforces the
  /// *global* budget but walks the inserting shard's tail, so cross-shard
  /// eviction order is approximate — single-shard caches are exact (tests
  /// use shards = 1 when asserting LRU order).
  explicit PrepCache(int64_t byte_budget, PrepCacheStore* store = nullptr,
                     int shards = 8);

  PrepCache(const PrepCache&) = delete;
  PrepCache& operator=(const PrepCache&) = delete;

  /// The single-flight lookup: tier-1 hit returns immediately; otherwise
  /// exactly one caller per key runs tier-2 load / `fill` while concurrent
  /// callers for the same key block on its result (polling `ctx`, so a
  /// deadline or cancellation reaches waiters). A fill error propagates to
  /// every waiter and caches nothing. The returned artifact is shared and
  /// immutable; it stays valid after eviction for as long as the caller
  /// holds the pointer.
  StatusOr<std::shared_ptr<const PrepArtifact>> GetOrCompute(
      const PrepCacheKey& key, const ExecContext& ctx, const FillFn& fill);

  /// Tier-1 residency probe (no LRU promotion, no tier-2 I/O) — the
  /// admission controller's "will this request skip recompute" question.
  bool Contains(const PrepCacheKey& key) const;

  /// Drops every tier-1 entry (tier 2 untouched; in-flight fills complete
  /// and re-insert). Safe mid-run: evicted artifacts stay alive for holders.
  void Purge();

  PrepCacheStats stats() const;
  int64_t byte_budget() const { return byte_budget_; }

 private:
  /// One key's in-flight computation; waiters block on `cv`.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = OkStatus();
    std::shared_ptr<const PrepArtifact> value;
  };

  struct Entry {
    std::string canonical;
    std::shared_ptr<const PrepArtifact> value;
    int64_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::unordered_map<std::string, std::shared_ptr<Flight>> inflight;
  };

  Shard& ShardFor(const PrepCacheKey& key) const;
  /// Inserts under the shard lock and evicts the shard's LRU tail until the
  /// global budget holds again.
  void Insert(Shard& shard, const PrepCacheKey& key,
              std::shared_ptr<const PrepArtifact> value);
  /// Waits on an in-flight fill, polling `ctx` so deadline/cancel land.
  StatusOr<std::shared_ptr<const PrepArtifact>> AwaitFlight(
      const std::shared_ptr<Flight>& flight, const ExecContext& ctx);

  const int64_t byte_budget_;
  PrepCacheStore* const store_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<int64_t> resident_bytes_{0};
  std::atomic<int64_t> resident_entries_{0};
  std::atomic<int64_t> memory_hits_{0};
  std::atomic<int64_t> disk_hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> load_errors_{0};
  std::atomic<int64_t> store_errors_{0};
  std::atomic<int64_t> coalesced_waits_{0};
};

/// Rebuilds a PreprocessResult from a cached artifact: FromParts + the
/// stored permutation, edge order, lambda and costs. Deterministic and allocation-only,
/// so a cache hit's result is byte-identical to the compute that produced
/// the artifact. Timings report the rebuild, not the original compute.
StatusOr<PreprocessResult> MaterializePreprocess(const PrepArtifact& artifact,
                                                 const ExecContext& ctx);

/// Runs the full (uncached) preprocessing for `options` and packages the
/// result as an artifact — the cache's fill function. Lives in preprocess.cc
/// next to the pipeline it snapshots.
StatusOr<PrepArtifact> ComputePrepArtifact(const Graph& g,
                                           const DeviceSpec& spec,
                                           const PreprocessOptions& options,
                                           const ExecContext& ctx);

}  // namespace gputc

#endif  // GPUTC_CORE_PREP_CACHE_H_
