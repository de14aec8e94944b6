#include "tc/cost_rules.h"

#include <algorithm>

#include "sim/memory.h"

namespace gputc {

ThreadWork BinarySearchGlobal(int64_t len, const DeviceSpec& spec) {
  ThreadWork w;
  w.compute_ops = ProbesForBinarySearch(len);
  w.mem_transactions =
      static_cast<double>(ThreadBinarySearchTransactions(len, spec));
  return w;
}

ThreadWork BinarySearchShared(int64_t len, const DeviceSpec& spec) {
  ThreadWork w;
  w.compute_ops = ProbesForBinarySearch(len);
  w.shared_transactions =
      static_cast<double>(ThreadBinarySearchTransactions(len, spec));
  return w;
}

ThreadWork BinarySearchBatch(int64_t keys, int64_t len, bool shared,
                             const DeviceSpec& spec) {
  ThreadWork w;
  if (keys <= 0 || len <= 0) return w;
  const int per_txn = spec.elements_per_transaction();
  const int64_t list_segments = (len + per_txn - 1) / per_txn;
  const int64_t txns = std::min(
      keys * ThreadBinarySearchTransactions(len, spec), list_segments);
  w.compute_ops =
      static_cast<double>(keys) * ProbesForBinarySearch(len);
  const double charged = static_cast<double>(std::max<int64_t>(1, txns));
  if (shared) {
    w.shared_transactions = charged;
  } else {
    w.mem_transactions = charged;
  }
  return w;
}

ThreadWork WarpSearchLaneShare(int64_t len, int active_lanes,
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

ThreadWork SequentialScan(int64_t elements, const DeviceSpec& spec) {
  ThreadWork w;
  if (elements <= 0) return w;
  const int per_txn = spec.elements_per_transaction();
  w.compute_ops = static_cast<double>(elements);
  w.mem_transactions =
      static_cast<double>((elements + per_txn - 1) / per_txn);
  return w;
}

ThreadWork CoalescedLoadLaneShare(int64_t elements, int active_lanes,
                                  const DeviceSpec& spec) {
  ThreadWork w;
  if (elements <= 0 || active_lanes <= 0) return w;
  const int per_txn = spec.elements_per_transaction();
  const double txns = static_cast<double>((elements + per_txn - 1) / per_txn);
  w.compute_ops = static_cast<double>(elements) / active_lanes;
  w.mem_transactions = txns / active_lanes;
  return w;
}

ThreadWork BitmapAccess(const DeviceSpec& /*spec*/) {
  ThreadWork w;
  w.compute_ops = 1.0;
  w.mem_transactions = 1.0;  // Scattered: one transaction per access.
  return w;
}

ThreadWork SortMerge(int64_t len_a, int64_t len_b, const DeviceSpec& spec) {
  ThreadWork w;
  const int per_txn = spec.elements_per_transaction();
  const int64_t steps = std::max<int64_t>(0, len_a) + std::max<int64_t>(0, len_b);
  // Merge loops branch on data every step; the warp pays the divergence
  // multiplier (binary search's uniform probe loop does not).
  w.compute_ops =
      static_cast<double>(steps) * spec.simt_divergence_penalty;
  w.mem_transactions = static_cast<double>(
      (len_a + per_txn - 1) / per_txn + (len_b + per_txn - 1) / per_txn);
  return w;
}

void ChargeWarpSearch(BlockCostModel& model, int warp, int64_t du, int64_t dv,
                      const DeviceSpec& spec) {
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
