#ifndef GPUTC_TC_COST_RULES_H_
#define GPUTC_TC_COST_RULES_H_

#include <algorithm>
#include <cstdint>

#include "sim/block_cost.h"
#include "sim/device.h"
#include "sim/memory.h"

namespace gputc {

// Shared costing rules for the simulated triangle-counting kernels. Every
// algorithm charges the same primitive operations through these helpers so
// that cross-algorithm comparisons (Tables 5/6, Figure 10) are apples to
// apples. The rules follow the coalescing model in sim/memory.h. They run
// once or more per priced arc, so they live here to be inlined into the
// counters' block loops.

/// One thread binary searching a GLOBAL-memory list of length `len`.
inline ThreadWork BinarySearchGlobal(int64_t len, const DeviceSpec& spec) {
  ThreadWork w;
  w.compute_ops = ProbesForBinarySearch(len);
  w.mem_transactions =
      static_cast<double>(ThreadBinarySearchTransactions(len, spec));
  return w;
}

/// One thread binary searching a SHARED-memory list of length `len`
/// (Hu-style staged tiles; transactions go to the shared-memory pipeline).
inline ThreadWork BinarySearchShared(int64_t len, const DeviceSpec& spec) {
  ThreadWork w;
  w.compute_ops = ProbesForBinarySearch(len);
  w.shared_transactions =
      static_cast<double>(ThreadBinarySearchTransactions(len, spec));
  return w;
}

/// One thread binary searching `keys` ASCENDING keys in the same list of
/// length `len` (the per-arc batch every counter actually issues). Compute
/// is keys * probes; transactions are capped by the list's segment count —
/// consecutive searches share the top of the probe tree and revisit the
/// same segments, which the hardware serves from cache. `shared` applies
/// the shared-memory discount.
inline ThreadWork BinarySearchBatch(int64_t keys, int64_t len, bool shared,
                                    const DeviceSpec& spec) {
  ThreadWork w;
  if (keys <= 0 || len <= 0) return w;
  const int per_txn = spec.elements_per_transaction();
  const int64_t list_segments = (len + per_txn - 1) / per_txn;
  const int64_t txns = std::min(
      keys * ThreadBinarySearchTransactions(len, spec), list_segments);
  w.compute_ops = static_cast<double>(keys) * ProbesForBinarySearch(len);
  const double charged = static_cast<double>(std::max<int64_t>(1, txns));
  if (shared) {
    w.shared_transactions = charged;
  } else {
    w.mem_transactions = charged;
  }
  return w;
}

/// One thread's share of a warp-cooperative binary search for a batch of
/// keys in the same list (TriCore): `len` is the target list length,
/// `active_lanes` how many lanes participate.
inline ThreadWork WarpSearchLaneShare(int64_t len, int active_lanes,
                                      const DeviceSpec& spec) {
  ThreadWork w;
  if (active_lanes <= 0) return w;
  w.compute_ops = ProbesForBinarySearch(len);
  w.mem_transactions =
      static_cast<double>(
          WarpSharedListSearchTransactions(len, active_lanes, spec)) /
      static_cast<double>(active_lanes);
  return w;
}

/// One thread streaming `elements` consecutive elements from global memory
/// (sequential scan; coalesces within the thread).
inline ThreadWork SequentialScan(int64_t elements, const DeviceSpec& spec) {
  ThreadWork w;
  if (elements <= 0) return w;
  const int per_txn = spec.elements_per_transaction();
  w.compute_ops = static_cast<double>(elements);
  w.mem_transactions = static_cast<double>((elements + per_txn - 1) / per_txn);
  return w;
}

/// One thread's share of a warp-cooperative load of `elements` consecutive
/// elements (fully coalesced).
inline ThreadWork CoalescedLoadLaneShare(int64_t elements, int active_lanes,
                                         const DeviceSpec& spec) {
  ThreadWork w;
  if (elements <= 0 || active_lanes <= 0) return w;
  const int per_txn = spec.elements_per_transaction();
  const double txns = static_cast<double>((elements + per_txn - 1) / per_txn);
  w.compute_ops = static_cast<double>(elements) / active_lanes;
  w.mem_transactions = txns / active_lanes;
  return w;
}

/// One scattered bitmap probe or set in global memory (Bisson).
inline ThreadWork BitmapAccess(const DeviceSpec& /*spec*/) {
  ThreadWork w;
  w.compute_ops = 1.0;
  w.mem_transactions = 1.0;  // Scattered: one transaction per access.
  return w;
}

/// One thread sort-merging two lists of lengths `len_a` and `len_b`
/// (Gunrock's merge path): linear compute, sequential reads.
inline ThreadWork SortMerge(int64_t len_a, int64_t len_b,
                            const DeviceSpec& spec) {
  ThreadWork w;
  const int per_txn = spec.elements_per_transaction();
  const int64_t steps =
      std::max<int64_t>(0, len_a) + std::max<int64_t>(0, len_b);
  // Merge loops branch on data every step; the warp pays the divergence
  // multiplier (binary search's uniform probe loop does not).
  w.compute_ops = static_cast<double>(steps) * spec.simt_divergence_penalty;
  w.mem_transactions = static_cast<double>(
      (len_a + per_txn - 1) / per_txn + (len_b + per_txn - 1) / per_txn);
  return w;
}

/// Charges warp `warp` of the open block for resolving one arc (u, v)
/// cooperatively (TriCore, Fox's heavy bins): keys stream from N+(v) in
/// coalesced chunks of warp_size, and every active lane binary searches its
/// key in N+(u). `du`, `dv` are the out-degrees d~(u), d~(v).
inline void ChargeWarpSearch(BlockCostModel& model, int warp, int64_t du,
                             int64_t dv, const DeviceSpec& spec) {
  const int lanes = spec.warp_size;
  // Full chunks are identical, so they are charged in one shot.
  const int64_t full_chunks = dv / lanes;
  if (full_chunks > 0) {
    ThreadWork chunk = CoalescedLoadLaneShare(lanes, lanes, spec);
    chunk += WarpSearchLaneShare(du, lanes, spec);
    const double n = static_cast<double>(full_chunks);
    const ThreadWork lane_work{chunk.compute_ops * n,
                               chunk.mem_transactions * n,
                               chunk.shared_transactions * n};
    model.AddThreadsWork(warp * lanes, lanes, lane_work);
  }
  const int remainder = static_cast<int>(dv % lanes);
  if (remainder > 0) {
    ThreadWork lane_work = CoalescedLoadLaneShare(remainder, remainder, spec);
    lane_work += WarpSearchLaneShare(du, remainder, spec);
    model.AddThreadsWork(warp * lanes, remainder, lane_work);
  }
}

}  // namespace gputc

#endif  // GPUTC_TC_COST_RULES_H_
