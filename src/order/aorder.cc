#include "order/aorder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <span>

#include "obs/trace.h"
#include "util/logging.h"

namespace gputc {
namespace {

/// Algorithm 2's bucket packing, one run of equal superiority at a time.
///
/// Each vertex goes to the open bucket with the least (memory-dominated
/// phase) or greatest (compute-dominated phase) accumulated superiority,
/// ties to the lowest id. The open buckets are grouped into levels: a level
/// is every open bucket whose sum compares equal (==) to its key. A run of
/// vertices sharing one superiority s drains the extreme level x in id
/// order. Those are the buckets the vertex-at-a-time rule picks: each one
/// that takes a vertex moves to x + s, beyond x, so the rest of level x stays
/// extreme. The moved buckets all land on the same sum and join level x + s
/// together. When x + s == x the bucket that took the vertex is still the
/// extreme one with the lowest id, so it keeps taking the run until it is
/// full.
class LevelPacker {
 public:
  /// Packs `n` vertices into buckets of `bucket_size`.
  LevelPacker(size_t n, size_t bucket_size, const ExecContext* exec)
      : bucket_size_(bucket_size),
        stride_(std::min(bucket_size, n)),
        exec_(exec),
        fill_((n + bucket_size - 1) / bucket_size, 0) {
    const size_t num_buckets = fill_.size();
    slots_.resize(num_buckets * stride_);
    std::vector<uint32_t> all(num_buckets);
    for (size_t b = 0; b < num_buckets; ++b) {
      all[b] = static_cast<uint32_t>(num_buckets - 1 - b);
    }
    levels_.emplace(0.0, std::move(all));
  }

  /// Places `run`, whose vertices share superiority `s`, through the least
  /// level when `least` and the greatest otherwise. Returns false, with the
  /// vertices before the stop placed, once a stop poll fires.
  bool Place(std::span<const VertexId> run, double s, bool least) {
    size_t next = 0;
    while (next < run.size()) {
      GPUTC_CHECK(!levels_.empty());
      const auto level = least ? levels_.begin() : std::prev(levels_.end());
      std::vector<uint32_t>& ids = level->second;  // Descending.
      const double sum = level->first + s;
      ++drains_;
      if (sum == level->first) {
        const uint32_t b = ids.back();
        for (; next < run.size() && fill_[b] < bucket_size_; ++next) {
          if (!Put(run[next], b)) return false;
        }
        if (fill_[b] == bucket_size_) {
          ids.pop_back();
          if (ids.empty()) Retire(level);
        }
        continue;
      }
      moved_.clear();
      for (; next < run.size() && !ids.empty(); ++next) {
        const uint32_t b = ids.back();
        if (!Put(run[next], b)) return false;
        ids.pop_back();
        if (fill_[b] < bucket_size_) moved_.push_back(b);
      }
      if (ids.empty()) Retire(level);
      if (!moved_.empty()) Join(sum);
    }
    return true;
  }

  /// Level drains so far, one per pass of Place's loop.
  int64_t drains() const { return drains_; }

  /// The placed vertices, bucket by bucket in id order.
  std::vector<VertexId> TakeSequence() && {
    size_t out = 0;
    for (size_t b = 0; b < fill_.size(); ++b) {
      const size_t begin = b * stride_;
      for (size_t i = 0; i < fill_[b]; ++i) slots_[out++] = slots_[begin + i];
    }
    slots_.resize(out);
    return std::move(slots_);
  }

 private:
  using Levels = std::map<double, std::vector<uint32_t>>;

  /// Polls the stop request every 1024 placements, the deadline/cancellation
  /// contract for bucket packing (mirroring the counters' per-block polls),
  /// then appends `v` to bucket `b`.
  bool Put(VertexId v, uint32_t b) {
    constexpr int64_t kPollStride = 1024;
    if (exec_ != nullptr && dispatched_++ % kPollStride == 0 &&
        exec_->stop_requested()) {
      return false;
    }
    slots_[b * stride_ + fill_[b]++] = v;
    return true;
  }

  /// Drops an emptied level, keeping its node and id vector for reuse.
  void Retire(Levels::iterator level) {
    spare_.push_back(levels_.extract(level));
  }

  /// Adds the ascending `moved_` buckets to the level at `sum`.
  void Join(double sum) {
    auto level = levels_.lower_bound(sum);
    if (level == levels_.end() || level->first != sum) {
      if (spare_.empty()) {
        level = levels_.emplace_hint(level, sum, std::vector<uint32_t>());
      } else {
        Levels::node_type node = std::move(spare_.back());
        spare_.pop_back();
        node.key() = sum;
        level = levels_.insert(level, std::move(node));
      }
      level->second.assign(moved_.rbegin(), moved_.rend());
      return;
    }
    // Merge by id from the small end: both lists are sorted and disjoint.
    std::vector<uint32_t>& ids = level->second;
    size_t kept = ids.size();
    ids.resize(kept + moved_.size());
    size_t out = ids.size();
    for (const uint32_t b : moved_) {
      while (kept > 0 && ids[kept - 1] < b) ids[--out] = ids[--kept];
      ids[--out] = b;
    }
  }

  const size_t bucket_size_;
  const size_t stride_;  // Slots per bucket: no bucket holds more.
  const ExecContext* const exec_;
  std::vector<uint32_t> fill_;   // Vertices placed in each bucket.
  std::vector<VertexId> slots_;  // Bucket b's start at b * stride_.
  Levels levels_;
  std::vector<Levels::node_type> spare_;
  std::vector<uint32_t> moved_;
  int64_t dispatched_ = 0;
  int64_t drains_ = 0;
};

}  // namespace

AOrderResult AOrder(std::span<const EdgeCount> out_degrees,
                    const ResourceModel& model,
                    const AOrderOptions& options) {
  GPUTC_CHECK_GT(options.bucket_size, 0);
  const size_t n = out_degrees.size();
  AOrderResult result;
  result.perm.assign(n, 0);
  if (n == 0) return result;

  const size_t bucket_size = static_cast<size_t>(options.bucket_size);

  // Memory superiority is a function of the degree alone, so it is
  // evaluated once per distinct degree.
  const std::vector<DegreeIntensity> by_degree =
      IntensitiesByDegree(out_degrees, model);
  // The within-bucket sort packs a degree and an id into one 64-bit key.
  GPUTC_CHECK_LE(by_degree.size() - 1,
                 size_t{std::numeric_limits<uint32_t>::max()});

  // Partition vertices by the sign of their memory superiority (Lines 3-4),
  // and dispatch each class by descending |mem_sup|, ties by id, so the
  // largest contributions land while all buckets still have room. Only the
  // distinct degrees are compared: equal (class, |mem_sup|) pairs share one
  // key (degrees 0 and 1 both clamp to d = 1), and a stable counting sort of
  // the vertices over the keys yields the dispatch order, one run of
  // vertices per key.
  std::vector<size_t> distinct;
  for (size_t d = 0; d < by_degree.size(); ++d) {
    if (by_degree[d].vertices == 0) continue;
    // A NaN would break the levels' ordering.
    GPUTC_CHECK(std::isfinite(by_degree[d].superiority));
    distinct.push_back(d);
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
  std::vector<size_t> key_start;  // Dispatch position of each run.
  std::vector<double> key_superiority;
  size_t start = 0;
  for (size_t i = 0; i < distinct.size(); ++i) {
    const size_t d = distinct[i];
    if (i == 0 || memory_dominated(d) != memory_dominated(distinct[i - 1]) ||
        magnitude(d) != magnitude(distinct[i - 1])) {
      key_start.push_back(start);
      key_superiority.push_back(by_degree[d].superiority);
    }
    key_of_degree[d] = key_start.size() - 1;
    start += static_cast<size_t>(by_degree[d].vertices);
    if (memory_dominated(d)) {
      result.num_memory_dominated += by_degree[d].vertices;
    }
  }
  result.num_compute_dominated =
      static_cast<int64_t>(n) - result.num_memory_dominated;
  std::vector<size_t> key_next = key_start;
  key_start.push_back(n);
  std::vector<VertexId> dispatch(n);
  for (VertexId v = 0; v < n; ++v) {
    const size_t key = key_of_degree[static_cast<size_t>(out_degrees[v])];
    dispatch[key_next[key]++] = v;
  }

  LevelPacker packer(n, bucket_size, options.exec);
  // Packs each run of one phase; each bucket pass is one span, and the
  // per-placement loop only polls, it never touches the tracer.
  size_t key = 0;
  auto pack_phase = [&](const char* phase, bool memory_phase) {
    Span pass = options.exec != nullptr
                    ? StartSpan(*options.exec, "aorder.pass")
                    : Span();
    pass.SetAttr("phase", phase);
    pass.SetAttr("vertices", memory_phase ? result.num_memory_dominated
                                          : result.num_compute_dominated);
    const int64_t drains_before = packer.drains();
    for (; key + 1 < key_start.size() &&
           (key_superiority[key] > 0.0) == memory_phase;
         ++key) {
      const std::span<const VertexId> run(dispatch.data() + key_start[key],
                                          key_start[key + 1] - key_start[key]);
      if (!packer.Place(run, key_superiority[key], memory_phase)) {
        result.aborted = true;
        break;
      }
    }
    pass.SetAttr("levels", packer.drains() - drains_before);
  };
  // Phase 1 (Lines 5-9): memory-dominated vertices into the bucket with the
  // least accumulated memory superiority.
  pack_phase("memory-dominated", true);
  // Phase 2 (Lines 10-15): compute-dominated vertices into the bucket with
  // the largest accumulated memory superiority.
  if (!result.aborted) pack_phase("compute-dominated", false);

  // Lines 16-20: consecutive ids within each bucket.
  std::vector<VertexId> sequence = std::move(packer).TakeSequence();
  // An aborted run still yields a valid permutation: unplaced vertices are
  // appended in id order, and the caller decides whether to keep it.
  if (result.aborted) {
    std::vector<char> placed(n, 0);
    for (VertexId v : sequence) placed[v] = 1;
    for (VertexId v = 0; v < n; ++v) {
      if (!placed[v]) sequence.push_back(v);
    }
  }
  GPUTC_CHECK_EQ(sequence.size(), n);
  // Degree-sort each aligned id chunk (the positions one block will fetch):
  // chunk membership — and therefore the Eq. 3 objective — is untouched;
  // the sort only makes lock-step warps inside a block as uniform as
  // possible so the balanced mix does not reappear as SIMT divergence.
  // A key (~degree, id) sorts ascending as (degree descending, id).
  // After a full packing the sorts poll every 16 chunks, as packing does
  // every ~1k placements; a stop leaves the remaining chunks unsorted and
  // the permutation valid.
  if (options.sort_within_bucket) {
    const bool poll = options.exec != nullptr && !result.aborted;
    std::vector<uint64_t> keys;
    keys.reserve(std::min(bucket_size, n));
    for (size_t chunk = 0; chunk < n; chunk += bucket_size) {
      if (poll && chunk / bucket_size % 16 == 0 &&
          options.exec->stop_requested()) {
        result.aborted = true;
        break;
      }
      const size_t end = std::min(n, chunk + bucket_size);
      keys.clear();
      for (size_t i = chunk; i < end; ++i) {
        const VertexId v = sequence[i];
        const auto degree = static_cast<uint32_t>(out_degrees[v]);
        keys.push_back(uint64_t{~degree} << 32 | v);
      }
      std::sort(keys.begin(), keys.end());
      for (size_t i = chunk; i < end; ++i) {
        sequence[i] = static_cast<VertexId>(keys[i - chunk]);
      }
    }
  }
  for (VertexId position = 0; position < n; ++position) {
    result.perm[sequence[position]] = position;
  }
  return result;
}

}  // namespace gputc
