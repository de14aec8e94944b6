#include "order/aorder.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>

#include "obs/trace.h"
#include "util/logging.h"

namespace gputc {
namespace {

struct HeapEntry {
  double mem_sup;
  int bucket;
};

struct MinFirst {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.mem_sup != b.mem_sup ? a.mem_sup > b.mem_sup
                                  : a.bucket > b.bucket;
  }
};

struct MaxFirst {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.mem_sup != b.mem_sup ? a.mem_sup < b.mem_sup
                                  : a.bucket > b.bucket;
  }
};

}  // namespace

AOrderResult AOrder(const std::vector<EdgeCount>& out_degrees,
                    const ResourceModel& model,
                    const AOrderOptions& options) {
  GPUTC_CHECK_GT(options.bucket_size, 0);
  const size_t n = out_degrees.size();
  AOrderResult result;
  result.perm.assign(n, 0);
  if (n == 0) return result;

  const size_t bucket_size = static_cast<size_t>(options.bucket_size);
  const size_t num_buckets = (n + bucket_size - 1) / bucket_size;

  // Memory superiority is a function of the degree alone, so it is
  // evaluated once per distinct degree.
  const std::vector<DegreeIntensity> by_degree =
      IntensitiesByDegree(out_degrees, model);
  auto superiority = [&](VertexId v) {
    return by_degree[static_cast<size_t>(out_degrees[v])].superiority;
  };

  // Partition vertices by the sign of their memory superiority (Lines 3-4),
  // and dispatch each class by descending |mem_sup|, ties by id, so the
  // largest contributions land while all buckets still have room. Only the
  // distinct degrees are compared: equal (class, |mem_sup|) pairs share one
  // key (degrees 0 and 1 both clamp to d = 1), and a stable counting sort of
  // the vertices over the keys yields the dispatch order.
  std::vector<size_t> distinct;
  for (size_t d = 0; d < by_degree.size(); ++d) {
    if (by_degree[d].vertices > 0) distinct.push_back(d);
  }
  auto memory_dominated = [&by_degree](size_t d) {
    return by_degree[d].superiority > 0.0;
  };
  auto magnitude = [&by_degree](size_t d) {
    return std::abs(by_degree[d].superiority);
  };
  std::sort(distinct.begin(), distinct.end(), [&](size_t a, size_t b) {
    return memory_dominated(a) != memory_dominated(b)
               ? memory_dominated(a)
               : magnitude(a) > magnitude(b);
  });
  std::vector<size_t> key_of_degree(by_degree.size());
  std::vector<size_t> key_next;  // Next dispatch position of each key.
  size_t start = 0;
  for (size_t i = 0; i < distinct.size(); ++i) {
    const size_t d = distinct[i];
    if (i == 0 || memory_dominated(d) != memory_dominated(distinct[i - 1]) ||
        magnitude(d) != magnitude(distinct[i - 1])) {
      key_next.push_back(start);
    }
    key_of_degree[d] = key_next.size() - 1;
    start += static_cast<size_t>(by_degree[d].vertices);
    if (memory_dominated(d)) {
      result.num_memory_dominated += by_degree[d].vertices;
    }
  }
  result.num_compute_dominated =
      static_cast<int64_t>(n) - result.num_memory_dominated;
  std::vector<VertexId> dispatch(n);
  for (VertexId v = 0; v < n; ++v) {
    const size_t key = key_of_degree[static_cast<size_t>(out_degrees[v])];
    dispatch[key_next[key]++] = v;
  }
  const size_t num_mem = static_cast<size_t>(result.num_memory_dominated);
  const std::span<const VertexId> mem_dominated(dispatch.data(), num_mem);
  const std::span<const VertexId> comp_dominated(dispatch.data() + num_mem,
                                                 n - num_mem);

  std::vector<std::vector<VertexId>> buckets(num_buckets);
  std::vector<double> bucket_sup(num_buckets, 0.0);
  std::vector<char> placed(n, 0);

  // Stop polling at placement granularity: the deadline/cancellation
  // contract for bucket packing, mirroring the counters' per-block polls.
  int64_t dispatched = 0;
  auto stop_requested = [&options, &dispatched]() {
    constexpr int64_t kPollStride = 1024;
    return options.exec != nullptr && dispatched++ % kPollStride == 0 &&
           options.exec->stop_requested();
  };

  // Phase 1 (Lines 5-9): memory-dominated vertices into the bucket with the
  // least accumulated memory superiority. Each bucket pass is one span; the
  // per-placement loop only polls, it never touches the tracer.
  {
    Span pass = options.exec != nullptr
                    ? StartSpan(*options.exec, "aorder.pass")
                    : Span();
    pass.SetAttr("phase", "memory-dominated");
    pass.SetAttr("vertices", static_cast<int64_t>(mem_dominated.size()));
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, MinFirst> heap;
    for (size_t b = 0; b < num_buckets; ++b) {
      heap.push(HeapEntry{0.0, static_cast<int>(b)});
    }
    for (VertexId v : mem_dominated) {
      if (stop_requested()) {
        result.aborted = true;
        break;
      }
      HeapEntry top = heap.top();
      heap.pop();
      auto& bucket = buckets[static_cast<size_t>(top.bucket)];
      bucket.push_back(v);
      placed[v] = 1;
      bucket_sup[static_cast<size_t>(top.bucket)] += superiority(v);
      if (bucket.size() < bucket_size) {
        heap.push(
            HeapEntry{bucket_sup[static_cast<size_t>(top.bucket)], top.bucket});
      }
    }
  }

  // Phase 2 (Lines 10-15): compute-dominated vertices into the bucket with
  // the largest accumulated memory superiority.
  if (!result.aborted) {
    Span pass = options.exec != nullptr
                    ? StartSpan(*options.exec, "aorder.pass")
                    : Span();
    pass.SetAttr("phase", "compute-dominated");
    pass.SetAttr("vertices", static_cast<int64_t>(comp_dominated.size()));
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, MaxFirst> heap;
    for (size_t b = 0; b < num_buckets; ++b) {
      if (buckets[b].size() < bucket_size) {
        heap.push(HeapEntry{bucket_sup[b], static_cast<int>(b)});
      }
    }
    for (VertexId v : comp_dominated) {
      if (stop_requested()) {
        result.aborted = true;
        break;
      }
      GPUTC_CHECK(!heap.empty());
      HeapEntry top = heap.top();
      heap.pop();
      auto& bucket = buckets[static_cast<size_t>(top.bucket)];
      bucket.push_back(v);
      placed[v] = 1;
      bucket_sup[static_cast<size_t>(top.bucket)] += superiority(v);
      if (bucket.size() < bucket_size) {
        heap.push(
            HeapEntry{bucket_sup[static_cast<size_t>(top.bucket)], top.bucket});
      }
    }
  }

  // Lines 16-20: consecutive ids within each bucket.
  std::vector<VertexId> sequence;
  sequence.reserve(n);
  for (const auto& bucket : buckets) {
    sequence.insert(sequence.end(), bucket.begin(), bucket.end());
  }
  // An aborted run still yields a valid permutation: unplaced vertices are
  // appended in id order, and the caller decides whether to keep it.
  if (result.aborted) {
    for (VertexId v = 0; v < n; ++v) {
      if (!placed[v]) sequence.push_back(v);
    }
  }
  GPUTC_CHECK_EQ(sequence.size(), n);
  // Degree-sort each aligned id chunk (the positions one block will fetch):
  // chunk membership — and therefore the Eq. 3 objective — is untouched;
  // the sort only makes lock-step warps inside a block as uniform as
  // possible so the balanced mix does not reappear as SIMT divergence.
  if (options.sort_within_bucket) {
    for (size_t chunk = 0; chunk < sequence.size(); chunk += bucket_size) {
      const auto begin =
          sequence.begin() + static_cast<ptrdiff_t>(chunk);
      const auto end =
          sequence.begin() +
          static_cast<ptrdiff_t>(std::min(sequence.size(), chunk + bucket_size));
      std::sort(begin, end, [&out_degrees](VertexId a, VertexId b) {
        return out_degrees[a] != out_degrees[b]
                   ? out_degrees[a] > out_degrees[b]
                   : a < b;
      });
    }
  }
  for (VertexId position = 0; position < n; ++position) {
    result.perm[sequence[position]] = position;
  }
  return result;
}

}  // namespace gputc
