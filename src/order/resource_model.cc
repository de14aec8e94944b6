#include "order/resource_model.h"

#include <algorithm>
#include <cmath>

#include "sim/memory.h"
#include "util/logging.h"

namespace gputc {
namespace {

/// The paper's measured lambda on the Titan Xp (Section 5.3).
constexpr double kPaperLambda = 9.682;

/// Largest list length the BW table covers: 2^20 elements.
constexpr int kMaxLog2Length = 20;

}  // namespace

ResourceModel::ResourceModel(double lambda,
                             std::vector<double> bw_by_log2_len)
    : lambda_(lambda), bw_by_log2_len_(std::move(bw_by_log2_len)) {
  GPUTC_CHECK(!bw_by_log2_len_.empty());
  GPUTC_CHECK_GT(lambda_, 0.0);
}

ResourceModel ResourceModel::Default() {
  return ForDevice(DeviceSpec::TitanXpLike(), kPaperLambda);
}

ResourceModel ResourceModel::ForDevice(const DeviceSpec& spec, double lambda,
                                       SearchWorkload workload) {
  BandwidthProfiler profiler(spec, workload);
  std::vector<double> table;
  table.reserve(kMaxLog2Length + 1);
  for (int i = 0; i <= kMaxLog2Length; ++i) {
    table.push_back(profiler.BandwidthAt(int64_t{1} << i));
  }
  return ResourceModel(lambda, std::move(table));
}

double ResourceModel::ComputeIntensity(EdgeCount out_degree) const {
  const double d = static_cast<double>(std::max<EdgeCount>(1, out_degree));
  return std::sqrt(1.0 / d);
}

double ResourceModel::MemoryIntensity(EdgeCount out_degree) const {
  return std::sqrt(BandwidthAt(out_degree));
}

double ResourceModel::MemorySuperiority(EdgeCount out_degree) const {
  return MemoryIntensity(out_degree) - lambda_ * ComputeIntensity(out_degree);
}

double ResourceModel::BandwidthAt(EdgeCount out_degree) const {
  const double d = static_cast<double>(std::max<EdgeCount>(1, out_degree));
  const double log2d = std::log2(d);
  const int lo = std::clamp(static_cast<int>(log2d), 0,
                            static_cast<int>(bw_by_log2_len_.size()) - 1);
  const int hi =
      std::min(lo + 1, static_cast<int>(bw_by_log2_len_.size()) - 1);
  const double frac = std::clamp(log2d - lo, 0.0, 1.0);
  return bw_by_log2_len_[static_cast<size_t>(lo)] * (1.0 - frac) +
         bw_by_log2_len_[static_cast<size_t>(hi)] * frac;
}

std::vector<DegreeIntensity> IntensitiesByDegree(
    const std::vector<EdgeCount>& degrees, const ResourceModel& model) {
  EdgeCount min_degree = 0;
  EdgeCount max_degree = 0;
  for (const EdgeCount d : degrees) {
    min_degree = std::min(min_degree, d);
    max_degree = std::max(max_degree, d);
  }
  GPUTC_CHECK_GE(min_degree, 0);
  std::vector<DegreeIntensity> table(static_cast<size_t>(max_degree) + 1);
  for (const EdgeCount d : degrees) ++table[static_cast<size_t>(d)].vertices;
  for (size_t d = 0; d < table.size(); ++d) {
    DegreeIntensity& entry = table[d];
    if (entry.vertices == 0) continue;
    const EdgeCount degree = static_cast<EdgeCount>(d);
    entry.compute = model.ComputeIntensity(degree);
    entry.memory = model.MemoryIntensity(degree);
    entry.superiority = model.MemorySuperiority(degree);
  }
  return table;
}

std::vector<BucketCost> BucketCosts(const std::vector<EdgeCount>& out_degrees,
                                    const Permutation& perm, int bucket_size,
                                    const ResourceModel& model) {
  GPUTC_CHECK_GT(bucket_size, 0);
  GPUTC_CHECK_EQ(out_degrees.size(), perm.size());
  const size_t n = out_degrees.size();
  const size_t buckets = (n + static_cast<size_t>(bucket_size) - 1) /
                         static_cast<size_t>(bucket_size);
  const std::vector<DegreeIntensity> by_degree =
      IntensitiesByDegree(out_degrees, model);
  std::vector<BucketCost> costs(buckets);
  for (VertexId old_id = 0; old_id < n; ++old_id) {
    const size_t bucket = perm[old_id] / static_cast<size_t>(bucket_size);
    const DegreeIntensity& v =
        by_degree[static_cast<size_t>(out_degrees[old_id])];
    costs[bucket].compute += v.compute;
    costs[bucket].memory += v.memory;
  }
  return costs;
}

double OrderingImbalanceCost(const std::vector<EdgeCount>& out_degrees,
                             const Permutation& perm, int bucket_size,
                             const ResourceModel& model) {
  double total = 0.0;
  for (const BucketCost& b :
       BucketCosts(out_degrees, perm, bucket_size, model)) {
    total += std::abs(model.lambda() * b.compute - b.memory);
  }
  return total;
}

}  // namespace gputc
