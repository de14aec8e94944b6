#ifndef GPUTC_ORDER_RESOURCE_MODEL_H_
#define GPUTC_ORDER_RESOURCE_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/permutation.h"
#include "graph/types.h"
#include "sim/device.h"
#include "sim/memory.h"

namespace gputc {

/// The paper's resource balance model (Section 3.2.4 and 5.3).
///
/// Each vertex v with out-degree d~(v) contributes
///   computing intensity  c = F_c(d) = sqrt(1 / d)           (Eq. 22)
///   memory intensity     m = F_m(d) = sqrt(BW(d))           (Eq. 22)
/// where BW(d) is the measured warp binary-search bandwidth curve (Figure 8).
/// `lambda` converts compute units into memory units; the paper measures
/// 9.682 on its hardware, we calibrate our own against the simulator
/// (order/calibration.h) and keep the paper's value as the default.
class ResourceModel {
 public:
  /// Builds the model with an explicit bandwidth table. `bw_by_log2_len[i]`
  /// is BW(2^i) in bytes/cycle; lengths in between are geometrically
  /// interpolated. The table must be non-empty.
  ResourceModel(double lambda, std::vector<double> bw_by_log2_len);

  /// Model with the paper's lambda and the default device's measured BW
  /// curve.
  static ResourceModel Default();

  /// Model calibrated against `spec`'s bandwidth curve with a given lambda.
  /// `workload` selects the warp access pattern the BW(d) table measures
  /// (match it to the calibration workload).
  static ResourceModel ForDevice(
      const DeviceSpec& spec, double lambda,
      SearchWorkload workload = SearchWorkload::kDistinctLists);

  double lambda() const { return lambda_; }

  /// F_c(d) = sqrt(1/d); degree 0 is treated as 1 (an idle vertex costs the
  /// minimum, not infinity).
  double ComputeIntensity(EdgeCount out_degree) const;

  /// F_m(d) = sqrt(BW(d)).
  double MemoryIntensity(EdgeCount out_degree) const;

  /// Memory superiority F_m(d) - lambda * F_c(d) (Algorithm 2's mem_sup
  /// contribution). Positive -> memory-dominated vertex.
  double MemorySuperiority(EdgeCount out_degree) const;

  /// Interpolated BW(d).
  double BandwidthAt(EdgeCount out_degree) const;

 private:
  double lambda_;
  std::vector<double> bw_by_log2_len_;
};

/// The model evaluated at one degree.
struct DegreeIntensity {
  int64_t vertices = 0;      // Entries of the degree vector with this degree.
  double compute = 0.0;      // F_c(d)
  double memory = 0.0;       // F_m(d)
  double superiority = 0.0;  // F_m(d) - lambda * F_c(d)
};

/// The model at every degree of `degrees`, indexed by degree from 0 through
/// the largest entry (graph degrees are below the vertex count, so the table
/// is no longer than the graph). Each distinct degree is evaluated once and
/// absent degrees stay zero. The intensities are pure functions of the
/// degree, so per-vertex loops that read this table get the doubles a
/// per-vertex model call would return. Degrees must be non-negative.
std::vector<DegreeIntensity> IntensitiesByDegree(
    std::span<const EdgeCount> degrees, const ResourceModel& model);

/// Per-bucket totals of the optimization objective (Eq. 2).
struct BucketCost {
  double compute = 0.0;  // C_i
  double memory = 0.0;   // M_i
};

/// Splits vertices (in permuted order) into buckets of `bucket_size`
/// consecutive new ids and returns each bucket's (C_i, M_i). Reads the
/// intensities from IntensitiesByDegree, so out-degrees must be
/// non-negative.
std::vector<BucketCost> BucketCosts(const std::vector<EdgeCount>& out_degrees,
                                    const Permutation& perm, int bucket_size,
                                    const ResourceModel& model);

/// The paper's Eq. 3 objective: sum_i |lambda * C_i - M_i|. Lower is better;
/// A-order approximately minimizes it, D-order nearly maximizes it.
double OrderingImbalanceCost(const std::vector<EdgeCount>& out_degrees,
                             const Permutation& perm, int bucket_size,
                             const ResourceModel& model);

}  // namespace gputc

#endif  // GPUTC_ORDER_RESOURCE_MODEL_H_
