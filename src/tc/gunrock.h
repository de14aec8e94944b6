#ifndef GPUTC_TC_GUNROCK_H_
#define GPUTC_TC_GUNROCK_H_

#include "tc/counter.h"

namespace gputc {

/// Intersection strategy of the Gunrock-style counter (Section 6.2 compares
/// the two; binary search wins on GPU).
enum class IntersectStrategy { kBinarySearch, kSortMerge };

/// Wang et al. (Gunrock, PPoPP 2016): general thread-per-edge intersection
/// operator with selectable strategy.
///
/// Binary search: each thread searches every element of the SHORTER endpoint
/// list in the LONGER one (work O(min * log max), independent probes).
/// Sort-merge: each thread merges both lists linearly (work O(du + dv),
/// sequential reads, heavy lock-step divergence when neighboring threads
/// hold very different list lengths).
class GunrockCounter : public SimTriangleCounter {
 public:
  explicit GunrockCounter(
      IntersectStrategy strategy = IntersectStrategy::kBinarySearch)
      : strategy_(strategy) {}

  std::string name() const override {
    return strategy_ == IntersectStrategy::kBinarySearch ? "Gunrock-bs"
                                                         : "Gunrock-sm";
  }
  StatusOr<KernelStats> Price(const DirectedGraph& g, const DeviceSpec& spec,
                              const ExecContext& ctx) const override;
  bool uses_intra_block_sync() const override { return false; }
  bool uses_binary_search() const override {
    return strategy_ == IntersectStrategy::kBinarySearch;
  }

 private:
  IntersectStrategy strategy_;
};

}  // namespace gputc

#endif  // GPUTC_TC_GUNROCK_H_
