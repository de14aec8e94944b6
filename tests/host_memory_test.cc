// Admission estimates against the heap a request actually holds. This binary
// replaces the global operator new/delete with a counting pair, so it runs
// on its own: every allocation of the process adds its requested bytes to a
// live total and raises a high-water mark. A request's peak is the mark
// above what was live when it started, plus the input CSR it reads.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/executor.h"
#include "core/prep_cache.h"
#include "graph/generators.h"
#include "service/cache_store.h"
#include "tc/registry.h"
#include "util/version.h"

namespace {

std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

// Each block carries its requested size in a header of `align` bytes, so
// the unsized delete can subtract exactly what new added.
void* CountedAlloc(size_t bytes, size_t align) {
  const size_t header = std::max(align, alignof(std::max_align_t));
  void* base = align > alignof(std::max_align_t)
                   ? std::aligned_alloc(align, (header + bytes + align - 1) /
                                                   align * align)
                   : std::malloc(header + bytes);
  if (base == nullptr) return nullptr;
  char* user = static_cast<char*>(base) + header;
  reinterpret_cast<size_t*>(user)[-1] = bytes;
  const int64_t live =
      g_live.fetch_add(static_cast<int64_t>(bytes)) +
      static_cast<int64_t>(bytes);
  int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return user;
}

void CountedFree(void* ptr, size_t align) {
  if (ptr == nullptr) return;
  char* user = static_cast<char*>(ptr);
  g_live.fetch_sub(
      static_cast<int64_t>(reinterpret_cast<size_t*>(user)[-1]));
  std::free(user - std::max(align, alignof(std::max_align_t)));
}

void* CountedNew(size_t bytes, size_t align) {
  void* p = CountedAlloc(bytes, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return CountedNew(n, 1); }
void* operator new[](size_t n) { return CountedNew(n, 1); }
void* operator new(size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 1);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 1);
}
void operator delete(void* p) noexcept { CountedFree(p, 1); }
void operator delete[](void* p) noexcept { CountedFree(p, 1); }
void operator delete(void* p, size_t) noexcept { CountedFree(p, 1); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p, 1); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p, 1);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p, 1);
}
void operator delete(void* p, std::align_val_t a) noexcept {
  CountedFree(p, static_cast<size_t>(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  CountedFree(p, static_cast<size_t>(a));
}
void operator delete(void* p, size_t, std::align_val_t a) noexcept {
  CountedFree(p, static_cast<size_t>(a));
}
void operator delete[](void* p, size_t, std::align_val_t a) noexcept {
  CountedFree(p, static_cast<size_t>(a));
}

namespace gputc {
namespace {

/// Bytes of the input CSR, as the estimates charge it.
int64_t InputBytes(const Graph& g) {
  return static_cast<int64_t>(g.offsets().size() * sizeof(EdgeCount) +
                              g.adjacency().size() * sizeof(VertexId));
}

/// Peak live heap of one ExecuteResilient of `algorithm` on `g`, input
/// included.
int64_t RequestPeakBytes(const Graph& g, TcAlgorithm algorithm,
                         PrepCache* cache) {
  PreprocessOptions options;
  options.prep_cache = cache;
  const int64_t before = g_live.load();
  g_peak.store(before);
  const StatusOr<ExecutionResult> run = ExecuteResilient(
      g, DeviceSpec::TitanXpLike(), ExecutionPolicy{},
      {FallbackStage{false, algorithm}}, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return g_peak.load() - before + InputBytes(g);
}

struct Case {
  const char* name;
  Graph graph;
};

class HostMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string_view(SanitizerConfig()) != "none") {
      GTEST_SKIP() << "sanitizer builds replace operator new";
    }
  }
};

// RMAT scale 14 with edge factor 16 and a Watts-Strogatz ring of 2^16
// vertices with k = 8: both are above two 2^16-arc grains, so the CSR build
// and the exact count run on the host pool with their per-thread arrays.
TEST_F(HostMemoryTest, EstimatesCoverTheMeasuredPeak) {
  const std::vector<Case> cases = {
      {"rmat-14", GenerateRmat(14, 16, 5)},
      {"ws-65536", GenerateWattsStrogatz(1 << 16, 8, 0.1, 6)},
  };
  for (const Case& c : cases) {
    for (TcAlgorithm algorithm :
         {TcAlgorithm::kHu, TcAlgorithm::kTriCore,
          TcAlgorithm::kGunrockBinarySearch}) {
      const std::string where =
          std::string(c.name) + " / " + ToString(algorithm);
      // The warm-up starts the pool's threads and every process-wide
      // registry a request touches; the next request holds only its own.
      RequestPeakBytes(c.graph, algorithm, nullptr);
      const int64_t cold = RequestPeakBytes(c.graph, algorithm, nullptr);
      EXPECT_LE(cold, EstimateHostBytes(c.graph)) << where;

      // The fill holds the cache's artifact beside the request's own copy.
      PrepCache cache(0);
      const int64_t fill = RequestPeakBytes(c.graph, algorithm, &cache);
      EXPECT_LE(fill, EstimateHostBytesFill(c.graph)) << where;
      const int64_t warm = RequestPeakBytes(c.graph, algorithm, &cache);
      EXPECT_LE(warm, EstimateHostBytesCached(c.graph)) << where;
      std::cout << where << ": cold " << cold << " B (estimate "
                << EstimateHostBytes(c.graph) << "), fill " << fill
                << " B (estimate " << EstimateHostBytesFill(c.graph)
                << "), warm " << warm << " B (estimate "
                << EstimateHostBytesCached(c.graph) << ")\n";
    }
  }
}

// A cache with a tier-2 disk store: the fill encodes the artifact and
// writes it, and a fresh tier 1 over the same directory reads it back.
// Neither may hold more than the in-memory fill.
TEST_F(HostMemoryTest, DiskTierStaysUnderTheFillEstimate) {
  const std::vector<Case> cases = {
      {"rmat-14", GenerateRmat(14, 16, 5)},
      {"ws-65536", GenerateWattsStrogatz(1 << 16, 8, 0.1, 6)},
  };
  for (const Case& c : cases) {
    const std::string dir = ::testing::TempDir() + "/host_memory_" +
                            std::to_string(::getpid()) + "_" + c.name;
    ::mkdir(dir.c_str(), 0755);
    RequestPeakBytes(c.graph, TcAlgorithm::kHu, nullptr);
    int64_t fill = 0;
    {
      const TieredPrepCache tiered = MakeTieredPrepCache(dir, 64);
      fill = RequestPeakBytes(c.graph, TcAlgorithm::kHu, tiered.cache.get());
      EXPECT_EQ(tiered.cache->stats().misses, 1) << c.name;
    }
    const TieredPrepCache tiered = MakeTieredPrepCache(dir, 64);
    const int64_t disk_hit =
        RequestPeakBytes(c.graph, TcAlgorithm::kHu, tiered.cache.get());
    EXPECT_EQ(tiered.cache->stats().disk_hits, 1) << c.name;
    EXPECT_LE(fill, EstimateHostBytesFill(c.graph)) << c.name;
    EXPECT_LE(disk_hit, EstimateHostBytesFill(c.graph)) << c.name;
    std::cout << c.name << " / Hu, disk tier: fill " << fill
              << " B, disk hit " << disk_hit << " B (estimate "
              << EstimateHostBytesFill(c.graph) << ")\n";
    std::filesystem::remove_all(dir);
  }
}

// The `sparse-count` shape. Generating it takes a few seconds, so it runs
// only when asked for (--gtest_also_run_disabled_tests). Every counter's
// cold, fill and warm peaks are printed; only Hu's are held to the
// estimates, which do not charge Fox's and Bisson's own arrays.
TEST_F(HostMemoryTest, DISABLED_WattsStrogatzMillionVertices) {
  const Graph g = GenerateWattsStrogatz(1'000'000, 8, 0.1, 1);
  for (TcAlgorithm algorithm :
       {TcAlgorithm::kHu, TcAlgorithm::kFox, TcAlgorithm::kBisson}) {
    RequestPeakBytes(g, algorithm, nullptr);
    const int64_t cold = RequestPeakBytes(g, algorithm, nullptr);
    PrepCache cache(0);
    const int64_t fill = RequestPeakBytes(g, algorithm, &cache);
    const int64_t warm = RequestPeakBytes(g, algorithm, &cache);
    std::cout << "ws-1M / " << ToString(algorithm) << ": cold " << cold
              << " B, EstimateHostBytes " << EstimateHostBytes(g) << "; fill "
              << fill << " B, EstimateHostBytesFill "
              << EstimateHostBytesFill(g) << "; warm " << warm
              << " B, EstimateHostBytesCached " << EstimateHostBytesCached(g)
              << "\n";
    if (algorithm == TcAlgorithm::kHu) {
      EXPECT_LE(cold, EstimateHostBytes(g));
      EXPECT_LE(fill, EstimateHostBytesFill(g));
      EXPECT_LE(warm, EstimateHostBytesCached(g));
    }
  }
}

}  // namespace
}  // namespace gputc
