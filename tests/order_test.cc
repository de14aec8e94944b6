#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>
#include <set>
#include <string>

#include "direction/direction.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "order/aorder.h"
#include "order/calibration.h"
#include "order/ordering.h"
#include "order/resource_model.h"
#include "util/random.h"

namespace gputc {
namespace {

ResourceModel TestModel() {
  return CalibratedResourceModel(DeviceSpec::TitanXpLike());
}

class OrderingStrategyTest : public ::testing::TestWithParam<OrderingStrategy> {
};

TEST_P(OrderingStrategyTest, ProducesAPermutation) {
  const Graph g = GeneratePowerLawConfiguration(1500, 2.1, 1, 150, 51);
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  const Permutation perm =
      ComputeOrdering(g, d, GetParam(), TestModel(), AOrderOptions{64});
  EXPECT_TRUE(IsPermutation(perm));
}

TEST_P(OrderingStrategyTest, WorksOnDisconnectedGraphs) {
  // Two components plus isolated vertices.
  EdgeList list;
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(0, 2);
  list.Add(5, 6);
  list.set_num_vertices(10);
  const Graph g = Graph::FromEdgeList(std::move(list));
  const DirectedGraph d = Orient(g, DirectionStrategy::kIdBased);
  const Permutation perm =
      ComputeOrdering(g, d, GetParam(), TestModel(), AOrderOptions{4});
  EXPECT_TRUE(IsPermutation(perm));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, OrderingStrategyTest,
    ::testing::Values(OrderingStrategy::kOriginal, OrderingStrategy::kDegree,
                      OrderingStrategy::kAOrder, OrderingStrategy::kDfs,
                      OrderingStrategy::kBfsR, OrderingStrategy::kSlashBurn,
                      OrderingStrategy::kGro, OrderingStrategy::kBfs,
                      OrderingStrategy::kRcm, OrderingStrategy::kRandom),
    [](const ::testing::TestParamInfo<OrderingStrategy>& info) {
      std::string name = ToString(info.param);
      std::erase(name, '-');
      return name;
    });

TEST(AOrderTest, EmptyInput) {
  const AOrderResult r = AOrder({}, TestModel());
  EXPECT_TRUE(r.perm.empty());
  EXPECT_EQ(r.num_memory_dominated + r.num_compute_dominated, 0);
}

TEST(AOrderTest, PartitionsVerticesByDominance) {
  const ResourceModel model = TestModel();
  // Mix of tiny degrees (compute-dominated) and huge ones (memory).
  std::vector<EdgeCount> degrees;
  for (int i = 0; i < 64; ++i) degrees.push_back(1);
  for (int i = 0; i < 64; ++i) degrees.push_back(4096);
  const AOrderResult r = AOrder(degrees, model, AOrderOptions{16});
  EXPECT_TRUE(IsPermutation(r.perm));
  EXPECT_EQ(r.num_memory_dominated + r.num_compute_dominated, 128);
  EXPECT_GT(r.num_memory_dominated, 0);
  EXPECT_GT(r.num_compute_dominated, 0);
}

TEST(AOrderTest, MixesDominanceClassesWithinBuckets) {
  const ResourceModel model = TestModel();
  std::vector<EdgeCount> degrees;
  for (int i = 0; i < 64; ++i) degrees.push_back(1);
  for (int i = 0; i < 64; ++i) degrees.push_back(4096);
  const int bucket_size = 16;
  const AOrderResult r = AOrder(degrees, model, AOrderOptions{bucket_size});
  // Every bucket should contain both short-list and long-list vertices.
  std::vector<std::set<EdgeCount>> bucket_kinds(128 / bucket_size);
  for (size_t v = 0; v < degrees.size(); ++v) {
    bucket_kinds[r.perm[v] / bucket_size].insert(degrees[v]);
  }
  for (const auto& kinds : bucket_kinds) {
    EXPECT_EQ(kinds.size(), 2u);
  }
}

TEST(AOrderTest, BeatsDegreeOrderOnImbalanceObjective) {
  const Graph g = LoadDataset("gowalla");
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  const ResourceModel model = TestModel();
  const std::vector<EdgeCount> degs = d.OutDegrees();
  const int bucket = 256;

  const double a_cost = OrderingImbalanceCost(
      degs, AOrder(degs, model, AOrderOptions{bucket}).perm, bucket, model);
  const double original_cost = OrderingImbalanceCost(
      degs, IdentityPermutation(d.num_vertices()), bucket, model);
  const double degree_cost = OrderingImbalanceCost(
      degs, ComputeOrdering(g, d, OrderingStrategy::kDegree, model), bucket,
      model);
  // Eq. 3: A-order < Original < D-order (D-order groups equal resource
  // preferences, the paper's worst case).
  EXPECT_LT(a_cost, original_cost);
  EXPECT_LT(original_cost, degree_cost);
}

/// A-order in its per-vertex form, the reference the production code must
/// match bit for bit: one MemorySuperiority call per vertex, std::sort over
/// each dominance class, the same two heaps and the same stop polls.
struct ReferenceAOrderResult {
  Permutation perm;
  int64_t num_memory_dominated = 0;
  int64_t num_compute_dominated = 0;
  bool aborted = false;
};

ReferenceAOrderResult ReferenceAOrder(const std::vector<EdgeCount>& degrees,
                                      const ResourceModel& model,
                                      const AOrderOptions& options) {
  struct Entry {
    double mem_sup;
    int bucket;
  };
  struct MinFirst {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.mem_sup != b.mem_sup ? a.mem_sup > b.mem_sup
                                    : a.bucket > b.bucket;
    }
  };
  struct MaxFirst {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.mem_sup != b.mem_sup ? a.mem_sup < b.mem_sup
                                    : a.bucket > b.bucket;
    }
  };
  const size_t n = degrees.size();
  ReferenceAOrderResult result;
  result.perm.assign(n, 0);
  if (n == 0) return result;
  const size_t bucket_size = static_cast<size_t>(options.bucket_size);
  const size_t num_buckets = (n + bucket_size - 1) / bucket_size;

  std::vector<VertexId> mem_dominated;
  std::vector<VertexId> comp_dominated;
  std::vector<double> superiority(n);
  for (VertexId v = 0; v < n; ++v) {
    superiority[v] = model.MemorySuperiority(degrees[v]);
    (superiority[v] > 0.0 ? mem_dominated : comp_dominated).push_back(v);
  }
  result.num_memory_dominated = static_cast<int64_t>(mem_dominated.size());
  result.num_compute_dominated = static_cast<int64_t>(comp_dominated.size());
  auto by_abs_desc = [&superiority](VertexId a, VertexId b) {
    const double sa = std::abs(superiority[a]);
    const double sb = std::abs(superiority[b]);
    return sa != sb ? sa > sb : a < b;
  };
  std::sort(mem_dominated.begin(), mem_dominated.end(), by_abs_desc);
  std::sort(comp_dominated.begin(), comp_dominated.end(), by_abs_desc);

  std::vector<std::vector<VertexId>> buckets(num_buckets);
  std::vector<double> bucket_sup(num_buckets, 0.0);
  std::vector<char> placed(n, 0);
  int64_t dispatched = 0;
  auto stop_requested = [&options, &dispatched]() {
    return options.exec != nullptr && dispatched++ % 1024 == 0 &&
           options.exec->stop_requested();
  };
  auto place = [&](VertexId v, int b) {
    buckets[static_cast<size_t>(b)].push_back(v);
    placed[v] = 1;
    bucket_sup[static_cast<size_t>(b)] += superiority[v];
    return buckets[static_cast<size_t>(b)].size() < bucket_size;
  };
  {
    std::priority_queue<Entry, std::vector<Entry>, MinFirst> heap;
    for (size_t b = 0; b < num_buckets; ++b) {
      heap.push(Entry{0.0, static_cast<int>(b)});
    }
    for (VertexId v : mem_dominated) {
      if (stop_requested()) {
        result.aborted = true;
        break;
      }
      const Entry top = heap.top();
      heap.pop();
      if (place(v, top.bucket)) {
        heap.push(
            Entry{bucket_sup[static_cast<size_t>(top.bucket)], top.bucket});
      }
    }
  }
  if (!result.aborted) {
    std::priority_queue<Entry, std::vector<Entry>, MaxFirst> heap;
    for (size_t b = 0; b < num_buckets; ++b) {
      if (buckets[b].size() < bucket_size) {
        heap.push(Entry{bucket_sup[b], static_cast<int>(b)});
      }
    }
    for (VertexId v : comp_dominated) {
      if (stop_requested()) {
        result.aborted = true;
        break;
      }
      const Entry top = heap.top();
      heap.pop();
      if (place(v, top.bucket)) {
        heap.push(
            Entry{bucket_sup[static_cast<size_t>(top.bucket)], top.bucket});
      }
    }
  }
  std::vector<VertexId> sequence;
  for (const auto& bucket : buckets) {
    sequence.insert(sequence.end(), bucket.begin(), bucket.end());
  }
  if (result.aborted) {
    for (VertexId v = 0; v < n; ++v) {
      if (!placed[v]) sequence.push_back(v);
    }
  }
  if (options.sort_within_bucket) {
    for (size_t chunk = 0; chunk < n; chunk += bucket_size) {
      std::sort(sequence.begin() + static_cast<ptrdiff_t>(chunk),
                sequence.begin() +
                    static_cast<ptrdiff_t>(std::min(n, chunk + bucket_size)),
                [&degrees](VertexId a, VertexId b) {
                  return degrees[a] != degrees[b] ? degrees[a] > degrees[b]
                                                  : a < b;
                });
    }
  }
  for (VertexId position = 0; position < n; ++position) {
    result.perm[sequence[position]] = position;
  }
  return result;
}

/// Eq. 3 in its per-vertex form: two model calls per vertex.
double ReferenceImbalanceCost(const std::vector<EdgeCount>& degrees,
                              const Permutation& perm, int bucket_size,
                              const ResourceModel& model) {
  const size_t buckets =
      (degrees.size() + static_cast<size_t>(bucket_size) - 1) /
      static_cast<size_t>(bucket_size);
  std::vector<BucketCost> costs(buckets);
  for (VertexId v = 0; v < degrees.size(); ++v) {
    BucketCost& c = costs[perm[v] / static_cast<size_t>(bucket_size)];
    c.compute += model.ComputeIntensity(degrees[v]);
    c.memory += model.MemoryIntensity(degrees[v]);
  }
  double total = 0.0;
  for (const BucketCost& c : costs) {
    total += std::abs(model.lambda() * c.compute - c.memory);
  }
  return total;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Mostly short lists, with degrees 0 and 1 (which share one |mem_sup|)
/// interleaved by id, a long tail, and optionally lists past the model's
/// 2^20 table.
std::vector<EdgeCount> RandomDegrees(Rng& rng, size_t n, bool past_table) {
  std::vector<EdgeCount> degrees(n);
  for (EdgeCount& d : degrees) {
    const uint64_t kind = rng.NextBounded(16);
    if (kind < 6) {
      d = static_cast<EdgeCount>(rng.NextBounded(2));
    } else if (kind < 11) {
      d = static_cast<EdgeCount>(rng.NextBounded(64));
    } else if (kind < 15 || !past_table) {
      d = static_cast<EdgeCount>(rng.NextBounded(6000));
    } else {
      d = (EdgeCount{1} << 20) + static_cast<EdgeCount>(rng.NextBounded(4096));
    }
  }
  return degrees;
}

void ExpectMatchesReference(const std::vector<EdgeCount>& degrees,
                            const ResourceModel& model,
                            const AOrderOptions& options) {
  SCOPED_TRACE("n=" + std::to_string(degrees.size()) +
               " bucket=" + std::to_string(options.bucket_size));
  const AOrderResult got = AOrder(degrees, model, options);
  const ReferenceAOrderResult want = ReferenceAOrder(degrees, model, options);
  EXPECT_EQ(got.perm, want.perm);
  EXPECT_EQ(got.num_memory_dominated, want.num_memory_dominated);
  EXPECT_EQ(got.num_compute_dominated, want.num_compute_dominated);
  EXPECT_EQ(got.aborted, want.aborted);
  const double got_cost =
      OrderingImbalanceCost(degrees, got.perm, options.bucket_size, model);
  const double want_cost =
      ReferenceImbalanceCost(degrees, want.perm, options.bucket_size, model);
  EXPECT_TRUE(SameBits(got_cost, want_cost)) << got_cost << " vs " << want_cost;
}

TEST(AOrderTest, MatchesPerVertexReferenceBitForBit) {
  const ResourceModel model = TestModel();
  Rng rng(1729);
  const size_t sizes[] = {0, 1, 2, 7, 255, 256, 257, 1000, 4099, 20000};
  for (const int bucket : {1, 8, 37, 256}) {
    for (const size_t n : sizes) {
      ExpectMatchesReference(RandomDegrees(rng, n, /*past_table=*/false),
                             model, AOrderOptions{bucket});
    }
    const size_t n = static_cast<size_t>(rng.NextBounded(20001));
    ExpectMatchesReference(RandomDegrees(rng, n, /*past_table=*/false), model,
                           AOrderOptions{bucket, /*sort_within_bucket=*/false});
  }
}

TEST(AOrderTest, MatchesReferencePastTheBandwidthTable) {
  const ResourceModel model = TestModel();
  Rng rng(4104);
  for (const int bucket : {8, 256}) {
    ExpectMatchesReference(RandomDegrees(rng, 3000, /*past_table=*/true),
                           model, AOrderOptions{bucket});
  }
}

TEST(AOrderTest, CancelledRunMatchesReferenceTail) {
  const ResourceModel model = TestModel();
  ExecContext ctx;
  ctx.cancel.Cancel("test");
  Rng rng(99);
  for (const int bucket : {1, 8, 37, 256}) {
    AOrderOptions options{bucket};
    options.exec = &ctx;
    const std::vector<EdgeCount> degrees = RandomDegrees(rng, 5000, false);
    ASSERT_TRUE(AOrder(degrees, model, options).aborted);
    ExpectMatchesReference(degrees, model, options);
  }
}

/// `n` entries drawn from `values`, skewed towards the front of the list the
/// way a sparse graph's out-degrees crowd at a few small values.
std::vector<EdgeCount> FewDegrees(Rng& rng, size_t n,
                                  const std::vector<EdgeCount>& values) {
  std::vector<EdgeCount> degrees(n);
  for (EdgeCount& d : degrees) {
    const uint64_t a = rng.NextBounded(values.size());
    const uint64_t b = rng.NextBounded(values.size());
    d = values[std::min(a, b)];
  }
  return degrees;
}

TEST(AOrderTest, MatchesReferenceOnFewDistinctDegrees) {
  const ResourceModel model = TestModel();
  // Degrees up to 2 are compute-dominated under this model, 3 and up
  // memory-dominated.
  ASSERT_LE(model.MemorySuperiority(2), 0.0);
  ASSERT_GT(model.MemorySuperiority(3), 0.0);
  const std::vector<std::vector<EdgeCount>> value_sets = {
      {1},
      {5},
      {1, 4096},
      {0, 1, 4096},  // Degrees 0 and 1 share one superiority.
      {2, 3, 4096},
      {0, 1, 2, 3, 4, 5, 6, 7, 8},  // A ring lattice's directed degrees.
      {0, 1, 2, 3, 4, 8, 1024, 4096, 65536},
  };
  Rng rng(2718);
  for (const int bucket : {1, 8, 37, 256, 1024}) {
    for (const auto& values : value_sets) {
      for (const size_t n : {size_t{1}, size_t{300}, size_t{5000}}) {
        ExpectMatchesReference(FewDegrees(rng, n, values), model,
                               AOrderOptions{bucket});
      }
    }
    const auto& values = value_sets[static_cast<size_t>(bucket) %
                                    value_sets.size()];
    ExpectMatchesReference(FewDegrees(rng, 100000, values), model,
                           AOrderOptions{bucket});
    ExpectMatchesReference(FewDegrees(rng, 100000, value_sets.back()), model,
                           AOrderOptions{bucket, /*sort_within_bucket=*/false});
  }
}

TEST(AOrderTest, MatchesReferenceWhenASumAbsorbsTheRun) {
  // BW(1) = 1 with lambda = 1 gives degrees 0 and 1 a superiority of exactly
  // 0 (compute-dominated). BW(4) is the square of the double after 0.5, so
  // degree 4 is memory-dominated by one ulp of 0.5, below half an ulp of any
  // bucket sum that holds a degree-16 vertex. Adding either to such a sum
  // leaves it unchanged, in both phases.
  const double after_half = std::nextafter(0.5, 1.0);
  const ResourceModel model(
      1.0, {1.0, 0.01, after_half * after_half, 1.0, 100.0});
  const double zero = model.MemorySuperiority(1);
  const double tiny = model.MemorySuperiority(4);
  const double big = model.MemorySuperiority(16);
  ASSERT_EQ(zero, 0.0);
  ASSERT_EQ(model.MemorySuperiority(0), 0.0);
  ASSERT_GT(tiny, 0.0);
  ASSERT_GT(big, 1.0);
  ASSERT_EQ(big + tiny, big);
  ASSERT_LT(model.MemorySuperiority(2), 0.0);
  Rng rng(31337);
  for (const int bucket : {1, 3, 8, 37}) {
    for (const size_t n : {size_t{7}, size_t{100}, size_t{2000}}) {
      // The degree-16 vertices reach some, all or none of the buckets before
      // the degree-4 run starts.
      for (const std::vector<EdgeCount>& values :
           {std::vector<EdgeCount>{4, 1, 16, 0, 2},
            std::vector<EdgeCount>{16, 4, 1, 2, 0},
            std::vector<EdgeCount>{1, 4, 0}}) {
        ExpectMatchesReference(FewDegrees(rng, n, values), model,
                               AOrderOptions{bucket});
      }
    }
  }
}

TEST(AOrderTest, MatchesReferenceWhenLevelsMerge) {
  // At degrees 4^k both intensities are exact dyadic values, so these
  // superiorities are 1, 2, 3, 4, -1/16 and -1/32 exactly. Bucket sums then
  // coincide: buckets drained from one level land on a sum another level
  // already holds, in both phases.
  const ResourceModel model(1.0, {4.0, 1.0, 6.25, 1.0, 10.5625, 1.0,
                                  17.015625, 1.0, 0.0, 1.0, 0.0});
  const std::vector<EdgeCount> values = {1, 4, 256, 16, 1024, 64};
  const std::vector<double> want = {1.0, 2.0, -0.0625, 3.0, -0.03125, 4.0};
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(model.MemorySuperiority(values[i]), want[i]) << values[i];
  }
  Rng rng(4242);
  for (const int bucket : {1, 3, 8, 37}) {
    for (const size_t n : {size_t{10}, size_t{200}, size_t{3000}}) {
      ExpectMatchesReference(FewDegrees(rng, n, values), model,
                             AOrderOptions{bucket});
    }
  }
}

TEST(AOrderTest, CancelledAbsorbingRunMatchesReferenceTail) {
  // Degree 2 has a superiority of exactly 0 under this model, so packing
  // starts with a run that the first level absorbs, and the stop lands
  // inside it.
  const ResourceModel model = TestModel();
  ASSERT_EQ(model.MemorySuperiority(2), 0.0);
  ExecContext ctx;
  ctx.cancel.Cancel("test");
  for (const int bucket : {1, 8, 256}) {
    AOrderOptions options{bucket};
    options.exec = &ctx;
    const std::vector<EdgeCount> degrees(3000, 2);
    ASSERT_TRUE(AOrder(degrees, model, options).aborted);
    ExpectMatchesReference(degrees, model, options);
  }
}

std::string AttrOf(const SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return v;
  }
  return "";
}

TEST(AOrderTest, TracedPassesDrainFarFewerLevelsThanVertices) {
  // A flat graph's out-degrees take a handful of values, so each pass moves
  // whole levels of buckets at a time.
  const Graph g = GenerateWattsStrogatz(1 << 16, 8, 0.1, 5);
  const std::vector<EdgeCount> degrees =
      Orient(g, DirectionStrategy::kADirection).OutDegrees();
  const ResourceModel model = TestModel();
  Tracer tracer;
  ExecContext ctx;
  ctx.tracer = &tracer;
  ctx.trace_id = tracer.NewTraceId();
  AOrderOptions options{256};
  options.exec = &ctx;
  const AOrderResult traced = AOrder(degrees, model, options);
  EXPECT_EQ(traced.perm, AOrder(degrees, model, AOrderOptions{256}).perm);
  int passes = 0;
  for (const SpanRecord& span : tracer.Snapshot()) {
    if (span.name != "aorder.pass") continue;
    ++passes;
    const int64_t vertices = std::stoll(AttrOf(span, "vertices"));
    const int64_t levels = std::stoll(AttrOf(span, "levels"));
    SCOPED_TRACE(AttrOf(span, "phase"));
    EXPECT_GT(vertices, 0);
    EXPECT_GT(levels, 0);
    EXPECT_LT(levels * 20, vertices) << levels << " levels, " << vertices;
  }
  EXPECT_EQ(passes, 2);
}

TEST(ResourceModelTest, IntensityShapes) {
  const ResourceModel model = TestModel();
  // F_c decreasing in degree, F_m nondecreasing.
  EXPECT_GT(model.ComputeIntensity(1), model.ComputeIntensity(100));
  EXPECT_LE(model.MemoryIntensity(1), model.MemoryIntensity(4096));
  // Degree 0 treated as 1.
  EXPECT_EQ(model.ComputeIntensity(0), model.ComputeIntensity(1));
  EXPECT_GT(model.lambda(), 0.0);
}

TEST(ResourceModelTest, MemorySuperioritySignSeparatesClasses) {
  const ResourceModel model = TestModel();
  EXPECT_LT(model.MemorySuperiority(1), model.MemorySuperiority(1 << 14));
}

TEST(BucketCostsTest, SplitsByPermutedPosition) {
  const ResourceModel model = TestModel();
  const std::vector<EdgeCount> degs = {1, 1, 100, 100};
  // Identity: bucket 0 = {1, 1}, bucket 1 = {100, 100}.
  const auto identity_costs =
      BucketCosts(degs, IdentityPermutation(4), 2, model);
  ASSERT_EQ(identity_costs.size(), 2u);
  EXPECT_GT(identity_costs[0].compute, identity_costs[1].compute);
  EXPECT_LT(identity_costs[0].memory, identity_costs[1].memory);

  // Interleaved: buckets become identical.
  const Permutation interleave = {0, 2, 1, 3};
  const auto mixed_costs = BucketCosts(degs, interleave, 2, model);
  EXPECT_DOUBLE_EQ(mixed_costs[0].compute, mixed_costs[1].compute);
  EXPECT_DOUBLE_EQ(mixed_costs[0].memory, mixed_costs[1].memory);
}

TEST(OrderingImbalanceTest, InterleavingLowersCost) {
  const ResourceModel model = TestModel();
  std::vector<EdgeCount> degs;
  for (int i = 0; i < 32; ++i) degs.push_back(1);
  for (int i = 0; i < 32; ++i) degs.push_back(2048);
  Permutation interleave(64);
  for (VertexId v = 0; v < 32; ++v) {
    interleave[v] = 2 * v;           // Short lists at even slots.
    interleave[32 + v] = 2 * v + 1;  // Long lists at odd slots.
  }
  const double mixed = OrderingImbalanceCost(degs, interleave, 8, model);
  const double segregated =
      OrderingImbalanceCost(degs, IdentityPermutation(64), 8, model);
  EXPECT_LT(mixed, segregated);
}

}  // namespace
}  // namespace gputc
