#include "core/prep_cache.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "direction/direction.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "order/ordering.h"
#include "util/durable_file.h"

namespace gputc {
namespace {

/// First bytes of an encoded artifact; the trailing digit is the schema
/// version so a stale tier-2 file from an older build decodes as foreign.
constexpr char kArtifactMagic[8] = {'G', 'P', 'T', 'C',
                                    'P', 'R', 'P', '0' + kPrepCacheSchemaVersion};

void CountHit(const char* tier) {
  MetricsRegistry::Global()
      .GetCounter("gputc_prep_cache_hits_total",
                  "Preprocessing-cache hits by tier", {{"tier", tier}})
      .Increment();
}

void CountMiss() {
  MetricsRegistry::Global()
      .GetCounter("gputc_prep_cache_misses_total",
                  "Preprocessing-cache misses (artifact computed)")
      .Increment();
}

void CountEviction() {
  MetricsRegistry::Global()
      .GetCounter("gputc_prep_cache_evictions_total",
                  "Preprocessing-cache tier-1 evictions (byte budget)")
      .Increment();
}

void CountAdmittedBytes(int64_t bytes) {
  MetricsRegistry::Global()
      .GetCounter("gputc_prep_cache_bytes_total",
                  "Cumulative artifact bytes admitted into tier 1")
      .Increment(bytes);
}

void CountTierError(const char* op) {
  MetricsRegistry::Global()
      .GetCounter("gputc_prep_cache_tier2_errors_total",
                  "Tier-2 store failures, all recovered by recompute",
                  {{"op", op}})
      .Increment();
}

void SetResidencyGauges(int64_t bytes, int64_t entries) {
  MetricsRegistry::Global()
      .GetGauge("gputc_prep_cache_resident_bytes",
                "Artifact bytes currently resident in tier 1")
      .Set(static_cast<double>(bytes));
  MetricsRegistry::Global()
      .GetGauge("gputc_prep_cache_resident_entries",
                "Artifacts currently resident in tier 1")
      .Set(static_cast<double>(entries));
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T>
void AppendRaw(std::string* out, const std::vector<T>& v) {
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

template <typename T>
void AppendScalar(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Sequential reader over an encoded artifact; sets `ok` false on underrun
/// instead of reading past the end.
struct ByteReader {
  const char* p;
  size_t left;
  bool ok = true;

  template <typename T>
  T Scalar() {
    T v{};
    if (left < sizeof(T)) {
      ok = false;
      return v;
    }
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> Array(uint64_t count) {
    std::vector<T> v;
    if (!ok || count > left / sizeof(T)) {
      ok = false;
      return v;
    }
    if (count == 0) return v;
    v.resize(count);
    std::memcpy(v.data(), p, count * sizeof(T));
    p += count * sizeof(T);
    left -= count * sizeof(T);
    return v;
  }
};

}  // namespace

int64_t PrepArtifact::ByteSize() const {
  return static_cast<int64_t>(offsets.size() * sizeof(EdgeCount) +
                              adj.size() * sizeof(VertexId) +
                              vertex_perm.size() * sizeof(VertexId) +
                              edge_order.size() * sizeof(int64_t) +
                              sizeof(PrepArtifact));
}

std::string EncodePrepArtifact(const PrepArtifact& artifact) {
  std::string out;
  out.reserve(sizeof(kArtifactMagic) + 4 * sizeof(uint64_t) +
              3 * sizeof(double) + static_cast<size_t>(artifact.ByteSize()));
  out.append(kArtifactMagic, sizeof(kArtifactMagic));
  AppendScalar<uint64_t>(&out, artifact.offsets.size());
  AppendScalar<uint64_t>(&out, artifact.adj.size());
  AppendScalar<uint64_t>(&out, artifact.vertex_perm.size());
  AppendScalar<uint64_t>(&out, artifact.edge_order.size());
  AppendScalar<double>(&out, artifact.lambda);
  AppendScalar<double>(&out, artifact.direction_cost);
  AppendScalar<double>(&out, artifact.ordering_cost);
  AppendRaw(&out, artifact.offsets);
  AppendRaw(&out, artifact.adj);
  AppendRaw(&out, artifact.vertex_perm);
  AppendRaw(&out, artifact.edge_order);
  return out;
}

StatusOr<PrepArtifact> DecodePrepArtifact(std::string_view bytes) {
  if (bytes.size() < sizeof(kArtifactMagic) ||
      std::memcmp(bytes.data(), kArtifactMagic, sizeof(kArtifactMagic)) != 0) {
    return InvalidArgumentError(
        "DecodePrepArtifact: missing or foreign artifact magic");
  }
  ByteReader reader{bytes.data() + sizeof(kArtifactMagic),
                    bytes.size() - sizeof(kArtifactMagic)};
  const uint64_t n_offsets = reader.Scalar<uint64_t>();
  const uint64_t n_adj = reader.Scalar<uint64_t>();
  const uint64_t n_perm = reader.Scalar<uint64_t>();
  const uint64_t n_edge_order = reader.Scalar<uint64_t>();
  PrepArtifact artifact;
  artifact.lambda = reader.Scalar<double>();
  artifact.direction_cost = reader.Scalar<double>();
  artifact.ordering_cost = reader.Scalar<double>();
  artifact.offsets = reader.Array<EdgeCount>(n_offsets);
  artifact.adj = reader.Array<VertexId>(n_adj);
  artifact.vertex_perm = reader.Array<VertexId>(n_perm);
  artifact.edge_order = reader.Array<int64_t>(n_edge_order);
  if (!reader.ok || reader.left != 0) {
    return InvalidArgumentError(
        "DecodePrepArtifact: truncated or oversized artifact body");
  }
  // Shape sanity: the CSR must be internally consistent (n+1 offsets ending
  // at |adj|, one permutation slot per vertex), and an edge order names
  // every arc once by index. A CRC-clean file of the wrong shape is still a
  // foreign artifact.
  const bool edge_order_fits =
      (n_edge_order == 0 || n_edge_order == n_adj) &&
      std::all_of(artifact.edge_order.begin(), artifact.edge_order.end(),
                  [n_adj](int64_t arc) {
                    return static_cast<uint64_t>(arc) < n_adj;
                  });
  if (n_offsets == 0 || n_perm != n_offsets - 1 ||
      artifact.offsets.front() != 0 ||
      artifact.offsets.back() != static_cast<EdgeCount>(n_adj) ||
      !edge_order_fits) {
    return InvalidArgumentError(
        "DecodePrepArtifact: inconsistent artifact sections");
  }
  return artifact;
}

PrepCacheKey PrepFingerprint(const Graph& g, const DeviceSpec& spec,
                             const PreprocessOptions& options) {
  // The graph digest reuses the exact section CRCs the v2 binary format
  // frames the CSR with (graph/io.cc): a graph loaded from disk fingerprints
  // to the same digest its file sections carry.
  const uint32_t offsets_crc =
      Crc32c(g.offsets().data(), g.offsets().size() * sizeof(EdgeCount));
  const uint32_t adj_crc =
      Crc32c(g.adjacency().data(), g.adjacency().size() * sizeof(VertexId));
  // Fingerprint the *effective* bucket size: an explicit bucket equal to the
  // device default and a defaulted one produce the same artifact.
  const int bucket = options.aorder.bucket_size > 0
                         ? options.aorder.bucket_size
                         : spec.threads_per_block();

  char head[160];
  std::snprintf(head, sizeof(head),
                "prep-cache v%d|n=%u|m=%" PRId64 "|offcrc=%08x|adjcrc=%08x",
                kPrepCacheSchemaVersion, g.num_vertices(), g.num_edges(),
                offsets_crc, adj_crc);
  PrepCacheKey key;
  key.canonical = head;
  key.canonical += "|dir=";
  key.canonical += ToString(options.direction);
  key.canonical += "|ord=";
  key.canonical += ToString(options.ordering);
  key.canonical += "|bucket=" + std::to_string(bucket);
  key.canonical +=
      std::string("|sort=") + (options.aorder.sort_within_bucket ? "1" : "0");
  key.canonical += std::string("|cal=") + (options.calibrate ? "1" : "0");
  key.canonical += "|seed=" + std::to_string(options.seed);
  key.canonical += "|dev=" + std::to_string(spec.num_sms) + "," +
                   std::to_string(spec.warp_size) + "," +
                   std::to_string(spec.warps_per_block) + "," +
                   std::to_string(spec.transaction_bytes) + "," +
                   std::to_string(spec.element_bytes) + "," +
                   FormatDouble(spec.issue_width) + "," +
                   FormatDouble(spec.mem_transactions_per_cycle) + "," +
                   FormatDouble(spec.shared_transactions_per_cycle) + "," +
                   FormatDouble(spec.mem_latency_cycles) + "," +
                   FormatDouble(spec.sync_cost_cycles) + "," +
                   std::to_string(spec.shared_memory_bytes) + "," +
                   FormatDouble(spec.simt_divergence_penalty) + "," +
                   FormatDouble(spec.clock_ghz);

  const uint32_t h1 = Crc32c(key.canonical);
  const uint32_t h2 = Crc32c(key.canonical, h1 ^ 0x9e3779b9u);
  key.hash = (static_cast<uint64_t>(h1) << 32) | h2;
  char id[17];
  std::snprintf(id, sizeof(id), "%016" PRIx64, key.hash);
  key.id = id;
  return key;
}

PrepCache::PrepCache(int64_t byte_budget, PrepCacheStore* store, int shards)
    : byte_budget_(byte_budget), store_(store) {
  if (shards < 1) shards = 1;
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PrepCache::Shard& PrepCache::ShardFor(const PrepCacheKey& key) const {
  return *shards_[key.hash % shards_.size()];
}

void PrepCache::Insert(Shard& shard, const PrepCacheKey& key,
                       std::shared_ptr<const PrepArtifact> value) {
  if (shard.index.count(key.canonical) != 0) return;  // Purge-refill race.
  const int64_t bytes = value->ByteSize();
  shard.lru.push_front(Entry{key.canonical, std::move(value), bytes});
  shard.index[key.canonical] = shard.lru.begin();
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  resident_entries_.fetch_add(1, std::memory_order_relaxed);
  CountAdmittedBytes(bytes);
  while (byte_budget_ > 0 &&
         resident_bytes_.load(std::memory_order_relaxed) > byte_budget_ &&
         !shard.lru.empty()) {
    Entry& tail = shard.lru.back();
    resident_bytes_.fetch_sub(tail.bytes, std::memory_order_relaxed);
    resident_entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    CountEviction();
    shard.index.erase(tail.canonical);
    shard.lru.pop_back();
  }
  SetResidencyGauges(resident_bytes_.load(std::memory_order_relaxed),
                     resident_entries_.load(std::memory_order_relaxed));
}

StatusOr<std::shared_ptr<const PrepArtifact>> PrepCache::AwaitFlight(
    const std::shared_ptr<Flight>& flight, const ExecContext& ctx) {
  std::unique_lock<std::mutex> lock(flight->mu);
  while (!flight->done) {
    flight->cv.wait_for(lock, std::chrono::milliseconds(10));
    if (flight->done) break;
    // Poll outside the flight lock so a stuck leader cannot pin waiters past
    // their own deadline or a cancellation.
    lock.unlock();
    const Status cont = ctx.CheckContinue("prep.cache.wait");
    if (!cont.ok()) return cont;
    lock.lock();
  }
  if (!flight->status.ok()) return flight->status;
  return flight->value;
}

StatusOr<std::shared_ptr<const PrepArtifact>> PrepCache::GetOrCompute(
    const PrepCacheKey& key, const ExecContext& ctx, const FillFn& fill) {
  Span lookup = StartSpan(ctx, "prep.cache.lookup");
  lookup.SetAttr("key", key.id);

  Shard& shard = ShardFor(key);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto hit = shard.index.find(key.canonical);
    if (hit != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, hit->second);
      memory_hits_.fetch_add(1, std::memory_order_relaxed);
      CountHit("memory");
      lookup.SetAttr("outcome", "hit-memory");
      return hit->second->value;
    }
    auto in = shard.inflight.find(key.canonical);
    if (in != shard.inflight.end()) {
      flight = in->second;
    } else {
      flight = std::make_shared<Flight>();
      shard.inflight.emplace(key.canonical, flight);
      leader = true;
    }
  }

  if (!leader) {
    coalesced_waits_.fetch_add(1, std::memory_order_relaxed);
    lookup.SetAttr("outcome", "coalesced");
    return AwaitFlight(flight, ctx);
  }

  // Leader: tier-2 load, then fill. Tier-2 corruption (DataLoss) and any
  // other store failure degrade to a recompute — the request never fails
  // because a cache file went bad.
  StatusOr<std::shared_ptr<const PrepArtifact>> outcome =
      [&]() -> StatusOr<std::shared_ptr<const PrepArtifact>> {
    if (store_ != nullptr) {
      StatusOr<std::string> bytes = store_->Load(key);
      if (bytes.ok()) {
        StatusOr<PrepArtifact> decoded = DecodePrepArtifact(*bytes);
        if (decoded.ok()) {
          disk_hits_.fetch_add(1, std::memory_order_relaxed);
          CountHit("disk");
          lookup.SetAttr("outcome", "hit-disk");
          return std::make_shared<const PrepArtifact>(*std::move(decoded));
        }
        load_errors_.fetch_add(1, std::memory_order_relaxed);
        CountTierError("load");
      } else if (bytes.status().code() != StatusCode::kNotFound) {
        load_errors_.fetch_add(1, std::memory_order_relaxed);
        CountTierError("load");
      }
    }

    lookup.SetAttr("outcome", "miss");
    Span fill_span = StartSpan(ctx, "prep.cache.fill");
    fill_span.SetAttr("key", key.id);
    StatusOr<PrepArtifact> computed = fill();
    if (!computed.ok()) {
      fill_span.SetStatus(computed.status());
      return computed.status();
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    CountMiss();
    auto value = std::make_shared<const PrepArtifact>(*std::move(computed));
    if (store_ != nullptr) {
      // A corrupt tier-2 file is healed here: the verified recompute
      // atomically replaces it. Store failures only lose future reuse.
      const Status stored = store_->Store(key, EncodePrepArtifact(*value));
      if (!stored.ok()) {
        store_errors_.fetch_add(1, std::memory_order_relaxed);
        CountTierError("store");
      }
    }
    return value;
  }();

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (outcome.ok()) Insert(shard, key, *outcome);
    shard.inflight.erase(key.canonical);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    if (outcome.ok()) {
      flight->value = *outcome;
    } else {
      flight->status = outcome.status();
    }
  }
  flight->cv.notify_all();
  return outcome;
}

bool PrepCache::Contains(const PrepCacheKey& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.find(key.canonical) != shard.index.end();
}

void PrepCache::Purge() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& entry : shard->lru) {
      resident_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
      resident_entries_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard->lru.clear();
    shard->index.clear();
  }
  SetResidencyGauges(resident_bytes_.load(std::memory_order_relaxed),
                     resident_entries_.load(std::memory_order_relaxed));
}

PrepCacheStats PrepCache::stats() const {
  PrepCacheStats stats;
  stats.memory_hits = memory_hits_.load(std::memory_order_relaxed);
  stats.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.load_errors = load_errors_.load(std::memory_order_relaxed);
  stats.store_errors = store_errors_.load(std::memory_order_relaxed);
  stats.coalesced_waits = coalesced_waits_.load(std::memory_order_relaxed);
  stats.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  stats.resident_entries = resident_entries_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace gputc
