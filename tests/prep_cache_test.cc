// Differential cache-equivalence suite for the preprocessing cache: a cache
// hit must be indistinguishable from the compute it replaced — byte-identical
// CSR, permutation, costs, calibration, and triangle counts — across every
// counter, ordering, and direction on the structurally diverse corpus. Plus
// the cache mechanics themselves: LRU order, byte-budget accounting,
// fingerprint sensitivity, single-flight dedup under a thread storm, and
// tier-2 corruption recovery (a bad cache file costs a recompute, never a
// wrong answer).

#include "crash_harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "core/executor.h"
#include "core/pipeline.h"
#include "core/prep_cache.h"
#include "core/preprocess.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "service/cache_store.h"
#include "tc/cpu_counters.h"
#include "tc/registry.h"
#include "util/durable_file.h"
#include "util/failpoint.h"

namespace gputc {
namespace {

struct CorpusEntry {
  std::string name;
  Graph graph;
};

Graph StarOn64() {
  EdgeList list(64);
  for (VertexId leaf = 1; leaf < 64; ++leaf) list.Add(0, leaf);
  list.Normalize();
  return Graph::FromEdgeList(std::move(list));
}

Graph CliqueChain() {
  EdgeList list(25);
  for (VertexId clique = 0; clique < 5; ++clique) {
    const VertexId base = clique * 5;
    for (VertexId i = 0; i < 5; ++i) {
      for (VertexId j = i + 1; j < 5; ++j) {
        list.Add(base + i, base + j);
      }
    }
    if (clique > 0) list.Add(base - 1, base);
  }
  list.Normalize();
  return Graph::FromEdgeList(std::move(list));
}

Graph SingleEdge() {
  EdgeList list(2);
  list.Add(0, 1);
  return Graph::FromEdgeList(std::move(list));
}

/// The differential_test corpus: the cache must be invisible on exactly the
/// graphs the counters are proven correct on.
std::vector<CorpusEntry> Corpus() {
  std::vector<CorpusEntry> corpus;
  corpus.push_back(
      {"power-law", GeneratePowerLawConfiguration(300, 2.3, 2, 40, 11)});
  corpus.push_back({"uniform", GenerateErdosRenyi(200, 800, 12)});
  corpus.push_back({"star", StarOn64()});
  corpus.push_back({"clique-chain", CliqueChain()});
  corpus.push_back({"empty", Graph::FromEdgeList(EdgeList(0))});
  corpus.push_back({"edgeless", Graph::FromEdgeList(EdgeList(50))});
  corpus.push_back({"single-edge", SingleEdge()});
  return corpus;
}

constexpr TcAlgorithm kAllAlgorithms[] = {
    TcAlgorithm::kGunrockBinarySearch, TcAlgorithm::kGunrockSortMerge,
    TcAlgorithm::kTriCore,             TcAlgorithm::kFox,
    TcAlgorithm::kBisson,              TcAlgorithm::kHu,
    TcAlgorithm::kPolak};

std::string FreshDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "/prep_cache_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter++);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// A tiny synthetic artifact whose ByteSize is controlled via adj padding —
/// the unit the mechanics tests (LRU, budget, single-flight) insert.
PrepArtifact TinyArtifact(VertexId n, size_t adj_len, double lambda) {
  PrepArtifact artifact;
  artifact.offsets.assign(n + 1, 0);
  artifact.adj.assign(adj_len, 0);
  artifact.offsets.back() = static_cast<EdgeCount>(adj_len);
  artifact.vertex_perm.resize(n);
  for (VertexId v = 0; v < n; ++v) artifact.vertex_perm[v] = v;
  artifact.lambda = lambda;
  return artifact;
}

PrepCacheKey SyntheticKey(const std::string& name) {
  PrepCacheKey key;
  key.canonical = "synthetic|" + name;
  key.hash = std::hash<std::string>{}(key.canonical);
  key.id = name;
  return key;
}

/// Asserts every observable field of two preprocessing results is identical
/// (byte-for-byte on the vectors): the cache-equivalence oracle.
void ExpectSameResult(const PreprocessResult& a, const PreprocessResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.graph.offsets(), b.graph.offsets()) << label;
  EXPECT_EQ(a.graph.adjacency(), b.graph.adjacency()) << label;
  EXPECT_EQ(a.vertex_perm, b.vertex_perm) << label;
  EXPECT_EQ(a.direction_cost, b.direction_cost) << label;
  EXPECT_EQ(a.ordering_cost, b.ordering_cost) << label;
  EXPECT_EQ(a.lambda, b.lambda) << label;
}

// -- differential equivalence ------------------------------------------------

// Every (graph, direction, ordering): the uncached compute, the cache-miss
// fill, and the cache hit must produce byte-identical preprocessing output.
TEST(PrepCacheDifferentialTest, HitAndMissMatchUncachedEverywhere) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  for (const CorpusEntry& entry : Corpus()) {
    for (DirectionStrategy direction :
         {DirectionStrategy::kIdBased, DirectionStrategy::kADirection}) {
      for (OrderingStrategy ordering :
           {OrderingStrategy::kOriginal, OrderingStrategy::kAOrder,
            OrderingStrategy::kDegree, OrderingStrategy::kRandom}) {
        const std::string label = entry.name + "/" + ToString(direction) +
                                  "/" + ToString(ordering);
        PreprocessOptions options;
        options.direction = direction;
        options.ordering = ordering;
        options.calibrate = false;  // Keep the 7x2x4 sweep fast.
        const StatusOr<PreprocessResult> uncached =
            TryPreprocess(entry.graph, spec, options, ExecContext());
        ASSERT_TRUE(uncached.ok()) << label;

        PrepCache cache(/*byte_budget=*/0);
        options.prep_cache = &cache;
        const StatusOr<PreprocessResult> miss =
            TryPreprocess(entry.graph, spec, options, ExecContext());
        ASSERT_TRUE(miss.ok()) << label;
        const StatusOr<PreprocessResult> hit =
            TryPreprocess(entry.graph, spec, options, ExecContext());
        ASSERT_TRUE(hit.ok()) << label;

        ExpectSameResult(*uncached, *miss, label + " (miss)");
        ExpectSameResult(*uncached, *hit, label + " (hit)");
        EXPECT_EQ(cache.stats().misses, 1) << label;
        EXPECT_EQ(cache.stats().memory_hits, 1) << label;
      }
    }
  }
}

// Every counter, on every corpus graph, over a cache hit: the count must
// match the exact brute-force count (the pipeline's core correctness claim
// survives artifact round-tripping).
TEST(PrepCacheDifferentialTest, AllCountersCorrectOnCacheHits) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  for (const CorpusEntry& entry : Corpus()) {
    const int64_t expected = CountTrianglesNodeIterator(entry.graph);
    PrepCache cache(/*byte_budget=*/0);
    PreprocessOptions options;
    options.calibrate = false;
    options.prep_cache = &cache;
    for (TcAlgorithm algorithm : kAllAlgorithms) {
      const StatusOr<RunResult> run =
          TryRunTriangleCount(entry.graph, algorithm, spec, options);
      ASSERT_TRUE(run.ok())
          << entry.name << " / " << ToString(algorithm) << ": "
          << run.status().ToString();
      EXPECT_EQ(run->triangles, expected)
          << entry.name << " / " << ToString(algorithm);
    }
    // Six counters share the default-options artifact (one fill, five
    // hits); Fox reorders *edges* instead of relabeling vertices (Section
    // 6.4), so its pipeline preprocesses under different options and
    // correctly keys its own second entry.
    EXPECT_EQ(cache.stats().misses, 2) << entry.name;
    EXPECT_EQ(cache.stats().memory_hits, 5) << entry.name;
  }
}

// Calibration rides in the artifact: a hit must reproduce the calibrated
// lambda exactly, not re-calibrate or fall back to the paper constant.
TEST(PrepCacheDifferentialTest, CalibrationSurvivesTheCache) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const Graph g = GeneratePowerLawConfiguration(200, 2.3, 2, 30, 7);
  PreprocessOptions options;
  options.calibrate = true;
  const StatusOr<PreprocessResult> uncached =
      TryPreprocess(g, spec, options, ExecContext());
  ASSERT_TRUE(uncached.ok());

  PrepCache cache(/*byte_budget=*/0);
  options.prep_cache = &cache;
  ASSERT_TRUE(TryPreprocess(g, spec, options, ExecContext()).ok());
  const StatusOr<PreprocessResult> hit =
      TryPreprocess(g, spec, options, ExecContext());
  ASSERT_TRUE(hit.ok());
  ExpectSameResult(*uncached, *hit, "calibrated");
  EXPECT_GT(hit->lambda, 0.0);
}

// Tier-2 round trip through a fresh process-equivalent (new PrepCache, same
// directory): the disk artifact alone must reproduce the compute.
TEST(PrepCacheDifferentialTest, DiskTierReproducesAcrossCacheInstances) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const Graph g = GenerateErdosRenyi(200, 800, 12);
  DiskCacheStore store(FreshDir("roundtrip"));
  PreprocessOptions options;
  options.calibrate = true;

  PreprocessResult first = [&] {
    PrepCache cold(0, &store);
    options.prep_cache = &cold;
    StatusOr<PreprocessResult> r = TryPreprocess(g, spec, options, ExecContext());
    EXPECT_TRUE(r.ok());
    return *std::move(r);
  }();

  PrepCache warm(0, &store);
  options.prep_cache = &warm;
  const StatusOr<PreprocessResult> from_disk =
      TryPreprocess(g, spec, options, ExecContext());
  ASSERT_TRUE(from_disk.ok());
  ExpectSameResult(first, *from_disk, "disk round trip");
  EXPECT_EQ(warm.stats().disk_hits, 1);
  EXPECT_EQ(warm.stats().misses, 0);
}

// -- fingerprint sensitivity -------------------------------------------------

TEST(PrepFingerprintTest, StableForIdenticalInputs) {
  const Graph g = GenerateErdosRenyi(100, 300, 3);
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const PreprocessOptions options;
  const PrepCacheKey a = PrepFingerprint(g, spec, options);
  const PrepCacheKey b = PrepFingerprint(g, spec, options);
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.id.size(), 16u);
}

TEST(PrepFingerprintTest, EverySensitiveInputChangesTheKey) {
  const Graph g = GenerateErdosRenyi(100, 300, 3);
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  PreprocessOptions base_options;
  const std::string base = PrepFingerprint(g, spec, base_options).canonical;

  // One extra edge: the graph digest must move.
  {
    EdgeList list(100);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (VertexId u : g.neighbors(v)) {
        if (v < u) list.Add(v, u);
      }
    }
    list.Add(0, 99);
    list.Normalize();
    const Graph mutated = Graph::FromEdgeList(std::move(list));
    EXPECT_NE(PrepFingerprint(mutated, spec, base_options).canonical, base);
  }
  {
    PreprocessOptions o = base_options;
    o.direction = DirectionStrategy::kIdBased;
    EXPECT_NE(PrepFingerprint(g, spec, o).canonical, base);
  }
  {
    PreprocessOptions o = base_options;
    o.ordering = OrderingStrategy::kDegree;
    EXPECT_NE(PrepFingerprint(g, spec, o).canonical, base);
  }
  {
    PreprocessOptions o = base_options;
    o.calibrate = !o.calibrate;
    EXPECT_NE(PrepFingerprint(g, spec, o).canonical, base);
  }
  {
    PreprocessOptions o = base_options;
    o.seed = 99;
    EXPECT_NE(PrepFingerprint(g, spec, o).canonical, base);
  }
  {
    PreprocessOptions o = base_options;
    o.aorder.bucket_size = 7;
    EXPECT_NE(PrepFingerprint(g, spec, o).canonical, base);
  }
  {
    DeviceSpec other = spec;
    other.num_sms += 1;
    EXPECT_NE(PrepFingerprint(g, other, base_options).canonical, base);
  }
  // The cache pointer itself must NOT participate: otherwise no two caches
  // could ever share tier 2.
  {
    PrepCache cache(0);
    PreprocessOptions o = base_options;
    o.prep_cache = &cache;
    EXPECT_EQ(PrepFingerprint(g, spec, o).canonical, base);
  }
  // Explicit bucket equal to the device default folds to the same key.
  {
    PreprocessOptions o = base_options;
    o.aorder.bucket_size = spec.threads_per_block();
    EXPECT_EQ(PrepFingerprint(g, spec, o).canonical, base);
  }
}

// -- LRU mechanics -----------------------------------------------------------

StatusOr<std::shared_ptr<const PrepArtifact>> Put(PrepCache& cache,
                                                  const std::string& name,
                                                  size_t adj_len) {
  return cache.GetOrCompute(SyntheticKey(name), ExecContext(),
                            [&]() -> StatusOr<PrepArtifact> {
                              return TinyArtifact(4, adj_len, 1.0);
                            });
}

TEST(PrepCacheLruTest, EvictsLeastRecentlyUsedFirst) {
  const int64_t one = TinyArtifact(4, 1000, 1.0).ByteSize();
  // Budget holds exactly two artifacts; shards=1 makes LRU order exact.
  PrepCache cache(2 * one, nullptr, /*shards=*/1);
  ASSERT_TRUE(Put(cache, "a", 1000).ok());
  ASSERT_TRUE(Put(cache, "b", 1000).ok());
  // Touch "a": it becomes most recent, so "b" is now the tail.
  ASSERT_TRUE(Put(cache, "a", 1000).ok());
  ASSERT_TRUE(Put(cache, "c", 1000).ok());
  EXPECT_TRUE(cache.Contains(SyntheticKey("a")));
  EXPECT_FALSE(cache.Contains(SyntheticKey("b")));
  EXPECT_TRUE(cache.Contains(SyntheticKey("c")));
  const PrepCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.resident_entries, 2);
  EXPECT_EQ(stats.memory_hits, 1);  // The "a" touch.
  EXPECT_EQ(stats.misses, 3);
}

TEST(PrepCacheLruTest, ByteAccountingIsExact) {
  PrepCache cache(/*byte_budget=*/0, nullptr, /*shards=*/1);
  int64_t expected = 0;
  for (int i = 0; i < 5; ++i) {
    const size_t adj_len = 100 * (i + 1);
    expected += TinyArtifact(4, adj_len, 1.0).ByteSize();
    ASSERT_TRUE(Put(cache, "k" + std::to_string(i), adj_len).ok());
  }
  EXPECT_EQ(cache.stats().resident_bytes, expected);
  EXPECT_EQ(cache.stats().resident_entries, 5);

  cache.Purge();
  EXPECT_EQ(cache.stats().resident_bytes, 0);
  EXPECT_EQ(cache.stats().resident_entries, 0);
  EXPECT_FALSE(cache.Contains(SyntheticKey("k0")));

  // Refill after purge works (and recomputes).
  ASSERT_TRUE(Put(cache, "k0", 100).ok());
  EXPECT_TRUE(cache.Contains(SyntheticKey("k0")));
}

TEST(PrepCacheLruTest, OversizedArtifactPassesThroughWithoutResidency) {
  const int64_t one = TinyArtifact(4, 1000, 1.0).ByteSize();
  PrepCache cache(one / 2, nullptr, /*shards=*/1);
  const auto value = Put(cache, "big", 1000);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ((*value)->adj.size(), 1000u);  // Caller still gets the artifact.
  EXPECT_EQ(cache.stats().resident_entries, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 0);
  EXPECT_EQ(cache.stats().evictions, 1);
}

// An evicted artifact stays alive for holders of the shared pointer.
TEST(PrepCacheLruTest, EvictedArtifactSurvivesForHolders) {
  const int64_t one = TinyArtifact(4, 1000, 1.0).ByteSize();
  PrepCache cache(one, nullptr, /*shards=*/1);
  const auto first = Put(cache, "x", 1000);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(Put(cache, "y", 1000).ok());  // Evicts "x".
  EXPECT_FALSE(cache.Contains(SyntheticKey("x")));
  EXPECT_EQ((*first)->adj.size(), 1000u);
  EXPECT_EQ((*first)->offsets.back(), 1000);
}

// -- single flight -----------------------------------------------------------

// Eight threads ask for the same key while the fill stalls: exactly one fill
// runs, everyone gets the same artifact, and the other seven are recorded as
// coalesced waits. TSan-clean by construction (this test is in the sanitizer
// matrix).
TEST(PrepCacheSingleFlightTest, StormRunsExactlyOneFill) {
  PrepCache cache(/*byte_budget=*/0);
  const PrepCacheKey key = SyntheticKey("storm");
  std::atomic<int> fills{0};
  std::atomic<int> started{0};
  constexpr int kThreads = 8;

  std::vector<std::shared_ptr<const PrepArtifact>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      started.fetch_add(1);
      // Spin until every thread is launched so the storm is simultaneous.
      while (started.load() < kThreads) std::this_thread::yield();
      const auto r =
          cache.GetOrCompute(key, ExecContext(), [&]() -> StatusOr<PrepArtifact> {
            fills.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return TinyArtifact(4, 64, 2.5);
          });
      ASSERT_TRUE(r.ok());
      results[i] = *r;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(fills.load(), 1);
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(results[i], nullptr);
    EXPECT_EQ(results[i], results[0]);  // One shared artifact instance.
    EXPECT_EQ(results[i]->lambda, 2.5);
  }
  const PrepCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.coalesced_waits + stats.memory_hits, kThreads - 1);
}

// A failing fill propagates to every waiter and caches nothing; the next
// caller retries the fill.
TEST(PrepCacheSingleFlightTest, FillErrorReachesAllWaitersAndCachesNothing) {
  PrepCache cache(/*byte_budget=*/0);
  const PrepCacheKey key = SyntheticKey("storm-fail");
  std::atomic<int> fills{0};
  constexpr int kThreads = 4;
  std::vector<Status> statuses(kThreads, OkStatus());
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const auto r =
          cache.GetOrCompute(key, ExecContext(), [&]() -> StatusOr<PrepArtifact> {
            fills.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return InternalError("fill exploded");
          });
      statuses[i] = r.status();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kInternal);
  }
  EXPECT_FALSE(cache.Contains(key));
  EXPECT_EQ(cache.stats().misses, 0);  // Only successful fills count.

  const auto retry = Put(cache, "storm-fail", 16);
  EXPECT_TRUE(retry.ok());
  EXPECT_GE(fills.load(), 1);
}

// A deadline must reach a waiter blocked behind a slow leader.
TEST(PrepCacheSingleFlightTest, WaiterHonorsItsDeadline) {
  PrepCache cache(/*byte_budget=*/0);
  const PrepCacheKey key = SyntheticKey("slow-leader");
  std::atomic<bool> leader_in{false};
  std::atomic<bool> release{false};

  std::thread leader([&] {
    (void)cache.GetOrCompute(key, ExecContext(), [&]() -> StatusOr<PrepArtifact> {
      leader_in.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return TinyArtifact(4, 16, 1.0);
    });
  });
  while (!leader_in.load()) std::this_thread::yield();

  ExecContext ctx;
  ctx.deadline = Deadline::AfterMillis(30);
  const auto waited = cache.GetOrCompute(
      key, ctx, []() -> StatusOr<PrepArtifact> { return TinyArtifact(4, 16, 1.0); });
  EXPECT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);

  release.store(true);
  leader.join();
}

// -- artifact codec ----------------------------------------------------------

TEST(PrepArtifactCodecTest, RoundTripsEveryField) {
  PrepArtifact artifact = TinyArtifact(6, 40, 3.25);
  artifact.direction_cost = 123.5;
  artifact.ordering_cost = 456.25;

  const std::string encoded = EncodePrepArtifact(artifact);
  const StatusOr<PrepArtifact> decoded = DecodePrepArtifact(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->offsets, artifact.offsets);
  EXPECT_EQ(decoded->adj, artifact.adj);
  EXPECT_EQ(decoded->vertex_perm, artifact.vertex_perm);
  EXPECT_EQ(decoded->lambda, artifact.lambda);
  EXPECT_EQ(decoded->direction_cost, artifact.direction_cost);
  EXPECT_EQ(decoded->ordering_cost, artifact.ordering_cost);
  EXPECT_EQ(decoded->ByteSize(), artifact.ByteSize());
}

TEST(PrepArtifactCodecTest, RejectsForeignAndTruncatedBuffers) {
  const std::string encoded = EncodePrepArtifact(TinyArtifact(6, 40, 1.0));
  EXPECT_EQ(DecodePrepArtifact("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodePrepArtifact("GARBAGE-NOT-AN-ARTIFACT").status().code(),
            StatusCode::kInvalidArgument);
  for (const size_t cut : {size_t{4}, size_t{9}, encoded.size() / 2,
                           encoded.size() - 1}) {
    EXPECT_EQ(DecodePrepArtifact(encoded.substr(0, cut)).status().code(),
              StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
  EXPECT_EQ(DecodePrepArtifact(encoded + "x").status().code(),
            StatusCode::kInvalidArgument);
}

// -- tier-2 store ------------------------------------------------------------

TEST(DiskCacheStoreTest, StoresAndLoadsBack) {
  DiskCacheStore store(FreshDir("basic"));
  const PrepCacheKey key = SyntheticKey("deadbeef00000001");
  EXPECT_EQ(store.Load(key).status().code(), StatusCode::kNotFound);

  const std::string payload = EncodePrepArtifact(TinyArtifact(5, 32, 2.0));
  ASSERT_TRUE(store.Store(key, payload).ok());
  const StatusOr<std::string> loaded = store.Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, payload);

  const StatusOr<DiskCacheStore::DiskStats> stats = store.ScanStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files, 1);
  EXPECT_GT(stats->bytes, static_cast<int64_t>(payload.size()));

  const StatusOr<int64_t> purged = store.PurgeAll();
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(*purged, 1);
  EXPECT_EQ(store.Load(key).status().code(), StatusCode::kNotFound);
}

/// Appends `v` as four little-endian bytes.
void PutLe32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

// The on-disk layout documented in cache_store.h, spelled out byte by byte:
// a file built from it loads, and Store writes exactly those bytes.
TEST(DiskCacheStoreTest, LoadsAFileBuiltFromTheDocumentedLayout) {
  const PrepCacheKey key = SyntheticKey("deadbeef0000000a");
  const std::string payload = EncodePrepArtifact(TinyArtifact(5, 32, 2.0));
  std::string bytes = "GPTC-PREP-CACHE-V1\n";
  PutLe32(&bytes, static_cast<uint32_t>(key.canonical.size()));
  PutLe32(&bytes, Crc32c(key.canonical));
  bytes += key.canonical;
  PutLe32(&bytes, static_cast<uint32_t>(payload.size()));
  PutLe32(&bytes, Crc32c(payload));
  bytes += payload;

  DiskCacheStore by_hand(FreshDir("layout-hand"));
  ASSERT_TRUE(by_hand.EnsureDir().ok());
  {
    std::ofstream out(by_hand.PathFor(key), std::ios::binary);
    out << bytes;
    ASSERT_TRUE(out.good());
  }
  const StatusOr<std::string> loaded = by_hand.Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, payload);

  DiskCacheStore stored(FreshDir("layout-store"));
  ASSERT_TRUE(stored.Store(key, payload).ok());
  std::ifstream in(stored.PathFor(key), std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, bytes);
}

/// Flips one byte at `offset` (from the start, or from the end if negative).
void FlipByte(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const int64_t size = f.tellg();
  const int64_t pos = offset >= 0 ? offset : size + offset;
  ASSERT_LT(pos, size);
  f.seekg(pos);
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x40;
  f.seekp(pos);
  f.write(&byte, 1);
}

TEST(DiskCacheStoreTest, BitFlipAnywhereIsDataLossNeverWrongBytes) {
  const std::string payload = EncodePrepArtifact(TinyArtifact(5, 32, 2.0));
  const PrepCacheKey key = SyntheticKey("deadbeef00000002");
  // Flip a byte in the header, the key frame, and the payload region.
  for (const int64_t offset : {int64_t{2}, int64_t{24}, int64_t{-5}}) {
    DiskCacheStore store(FreshDir("flip"));
    ASSERT_TRUE(store.Store(key, payload).ok());
    FlipByte(store.PathFor(key), offset);
    const StatusOr<std::string> loaded = store.Load(key);
    ASSERT_FALSE(loaded.ok()) << "offset " << offset;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "offset " << offset << ": " << loaded.status().ToString();
  }
}

TEST(DiskCacheStoreTest, TruncationIsDataLoss) {
  DiskCacheStore store(FreshDir("trunc"));
  const PrepCacheKey key = SyntheticKey("deadbeef00000003");
  const std::string payload = EncodePrepArtifact(TinyArtifact(5, 32, 2.0));
  ASSERT_TRUE(store.Store(key, payload).ok());
  const std::string path = store.PathFor(key);
  struct ::stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size / 2), 0);
  EXPECT_EQ(store.Load(key).status().code(), StatusCode::kDataLoss);
}

// Two fingerprints colliding on the same 64-bit id (same file name) must
// degrade to NotFound for the second key — a miss, never a foreign artifact.
TEST(DiskCacheStoreTest, IdCollisionIsAMissNotAWrongArtifact) {
  DiskCacheStore store(FreshDir("collide"));
  PrepCacheKey a = SyntheticKey("deadbeef00000004");
  PrepCacheKey b = a;
  b.canonical = "synthetic|other-fingerprint-same-id";
  ASSERT_TRUE(store.Store(a, "payload-for-a").ok());
  EXPECT_EQ(store.Load(b).status().code(), StatusCode::kNotFound);
  const StatusOr<std::string> still_a = store.Load(a);
  ASSERT_TRUE(still_a.ok());
  EXPECT_EQ(*still_a, "payload-for-a");
}

TEST(DiskCacheStoreTest, MissingDirectoryIsEmptyNotAnError) {
  DiskCacheStore store(::testing::TempDir() + "/prep_cache_never_created_" +
                       std::to_string(::getpid()));
  const StatusOr<DiskCacheStore::DiskStats> stats = store.ScanStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files, 0);
  EXPECT_EQ(stats->bytes, 0);
  const StatusOr<int64_t> purged = store.PurgeAll();
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(*purged, 0);
  EXPECT_EQ(store.Load(SyntheticKey("0000000000000000")).status().code(),
            StatusCode::kNotFound);
}

// -- corruption recovery through the full cache ------------------------------

// A corrupt tier-2 artifact is detected (CRC), recomputed, and healed on
// disk; the caller sees a correct result throughout.
TEST(PrepCacheRecoveryTest, CorruptArtifactRecomputedAndHealed) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const Graph g = GenerateErdosRenyi(150, 500, 5);
  DiskCacheStore store(FreshDir("heal"));
  PreprocessOptions options;
  options.calibrate = false;
  const PrepCacheKey key = PrepFingerprint(g, spec, options);

  PreprocessResult reference = [&] {
    PrepCache fill(0, &store);
    options.prep_cache = &fill;
    StatusOr<PreprocessResult> r = TryPreprocess(g, spec, options, ExecContext());
    EXPECT_TRUE(r.ok());
    return *std::move(r);
  }();

  FlipByte(store.PathFor(key), -3);

  // Fresh tier 1 (a restarted process): the corrupt file must cost a
  // recompute, not correctness.
  PrepCache recovered(0, &store);
  options.prep_cache = &recovered;
  const StatusOr<PreprocessResult> after =
      TryPreprocess(g, spec, options, ExecContext());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSameResult(reference, *after, "recovered from corruption");
  EXPECT_EQ(recovered.stats().load_errors, 1);
  EXPECT_EQ(recovered.stats().misses, 1);
  EXPECT_EQ(recovered.stats().disk_hits, 0);

  // The recompute re-wrote the file: a third instance gets a clean disk hit.
  PrepCache healed(0, &store);
  options.prep_cache = &healed;
  ASSERT_TRUE(TryPreprocess(g, spec, options, ExecContext()).ok());
  EXPECT_EQ(healed.stats().disk_hits, 1);
  EXPECT_EQ(healed.stats().load_errors, 0);
}

// Armed cache.load / cache.store fail points: tier-2 faults must never fail
// the request — load faults recompute, store faults only lose future reuse.
TEST(PrepCacheRecoveryTest, InjectedTierFaultsNeverFailTheRequest) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const Graph g = GenerateErdosRenyi(150, 500, 5);
  PreprocessOptions options;
  options.calibrate = false;

  FailPointRegistry::Instance().Reset();
  {
    DiskCacheStore store(FreshDir("inject-store"));
    PrepCache cache(0, &store);
    options.prep_cache = &cache;
    ASSERT_TRUE(FailPointRegistry::Instance()
                    .ArmFromString("cache.store=internal")
                    .ok());
    const StatusOr<PreprocessResult> r =
        TryPreprocess(g, spec, options, ExecContext());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(cache.stats().store_errors, 1);
    FailPointRegistry::Instance().Reset();
    // Nothing landed on disk.
    const StatusOr<DiskCacheStore::DiskStats> stats = store.ScanStats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->files, 0);
  }
  {
    DiskCacheStore store(FreshDir("inject-load"));
    PrepCache fill(0, &store);
    options.prep_cache = &fill;
    ASSERT_TRUE(TryPreprocess(g, spec, options, ExecContext()).ok());

    ASSERT_TRUE(FailPointRegistry::Instance()
                    .ArmFromString("cache.load=data_loss")
                    .ok());
    PrepCache reread(0, &store);
    options.prep_cache = &reread;
    const StatusOr<PreprocessResult> r =
        TryPreprocess(g, spec, options, ExecContext());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(reread.stats().load_errors, 1);
    EXPECT_EQ(reread.stats().misses, 1);
    FailPointRegistry::Instance().Reset();
  }
}

// Purging tier 1 mid-stream changes nothing observable: the next request
// recomputes (or re-reads tier 2) into an identical result.
TEST(PrepCacheRecoveryTest, PurgeMidRunPreservesResults) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const Graph g = GenerateErdosRenyi(150, 500, 5);
  PrepCache cache(0);
  PreprocessOptions options;
  options.calibrate = false;
  options.prep_cache = &cache;

  const StatusOr<PreprocessResult> before =
      TryPreprocess(g, spec, options, ExecContext());
  ASSERT_TRUE(before.ok());
  cache.Purge();
  const StatusOr<PreprocessResult> after =
      TryPreprocess(g, spec, options, ExecContext());
  ASSERT_TRUE(after.ok());
  ExpectSameResult(*before, *after, "across purge");
  EXPECT_EQ(cache.stats().misses, 2);
}

// -- executor integration ----------------------------------------------------

// The degradation ladder keys every rung separately: warming the base
// configuration must not alias the degraded variants (and vice versa).
TEST(PrepCacheExecutorTest, DegradationRungsGetTheirOwnEntries) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const Graph g = GenerateErdosRenyi(150, 500, 5);
  PrepCache cache(0);
  PreprocessOptions base;
  base.calibrate = false;
  base.prep_cache = &cache;

  PreprocessOptions no_aorder = base;
  no_aorder.ordering = OrderingStrategy::kOriginal;

  ASSERT_TRUE(TryPreprocess(g, spec, base, ExecContext()).ok());
  EXPECT_TRUE(cache.Contains(PrepFingerprint(g, spec, base)));
  EXPECT_FALSE(cache.Contains(PrepFingerprint(g, spec, no_aorder)));

  ASSERT_TRUE(TryPreprocess(g, spec, no_aorder, ExecContext()).ok());
  EXPECT_TRUE(cache.Contains(PrepFingerprint(g, spec, no_aorder)));
  EXPECT_EQ(cache.stats().misses, 2);
}

// The cached-admission estimate must be genuinely cheaper than the cold one
// (that gap is what the admission fix in the batch service banks on).
TEST(PrepCacheExecutorTest, CachedEstimateIsBelowColdEstimate) {
  const Graph g = GenerateErdosRenyi(200, 800, 12);
  EXPECT_LT(EstimateHostBytesCached(g), EstimateHostBytes(g));
  EXPECT_GT(EstimateHostBytesCached(g), 0);
}

// -- CLI cache-command exit codes on a broken directory -----------------------
//
// `gputc cache stats|purge` against a vanished or unusable directory must
// answer with the documented exit codes (2 = flag error, 3 = I/O error), not
// silently report an empty cache (stats on a missing dir used to print
// zeros) and not crash.

TEST(CacheCliTest, StatsAndPurgeOnVanishedDirExitThree) {
  const std::string dir = ::testing::TempDir() + "/cache_cli_vanished_" +
                          std::to_string(::getpid());
  for (const char* verb : {"stats", "purge"}) {
    const testing::ChildResult run =
        testing::RunGputc({"cache", verb, "--prep-cache", dir});
    EXPECT_EQ(run.exit_code, 3) << verb << ": " << run.stderr_text;
    EXPECT_NE(run.stderr_text.find("does not exist"), std::string::npos)
        << verb << ": " << run.stderr_text;
  }
}

TEST(CacheCliTest, StatsAndPurgeOnNonDirectoryExitTwo) {
  // The path exists but is a file: a flag error, the operator pointed the
  // command somewhere that can never be a cache.
  const std::string path = ::testing::TempDir() + "/cache_cli_file_" +
                           std::to_string(::getpid());
  { std::ofstream out(path); out << "not a directory"; }
  for (const char* verb : {"stats", "purge"}) {
    const testing::ChildResult run =
        testing::RunGputc({"cache", verb, "--prep-cache", path});
    EXPECT_EQ(run.exit_code, 2) << verb << ": " << run.stderr_text;
    EXPECT_NE(run.stderr_text.find("not a directory"), std::string::npos)
        << verb << ": " << run.stderr_text;
  }
  ::unlink(path.c_str());
}

TEST(CacheCliTest, StatsAndPurgeOnUnreadableDirExitThree) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root ignores permission bits; the access() gate cannot "
                    "trip";
  }
  const std::string dir = FreshDir("cache_cli_unreadable");
  ASSERT_EQ(::chmod(dir.c_str(), 0000), 0);
  for (const char* verb : {"stats", "purge"}) {
    const testing::ChildResult run =
        testing::RunGputc({"cache", verb, "--prep-cache", dir});
    EXPECT_EQ(run.exit_code, 3) << verb << ": " << run.stderr_text;
    EXPECT_NE(run.stderr_text.find("readable"), std::string::npos)
        << verb << ": " << run.stderr_text;
  }
  ASSERT_EQ(::chmod(dir.c_str(), 0755), 0);
}

TEST(CacheCliTest, StatsOnHealthyDirStillWorks) {
  const std::string dir = FreshDir("cache_cli_ok");
  const testing::ChildResult run =
      testing::RunGputc({"cache", "stats", "--prep-cache", dir});
  EXPECT_EQ(run.exit_code, 0) << run.stderr_text;
  EXPECT_NE(run.stdout_text.find("artifacts:"), std::string::npos)
      << run.stdout_text;
}

}  // namespace
}  // namespace gputc
