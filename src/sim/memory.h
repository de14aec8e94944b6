#ifndef GPUTC_SIM_MEMORY_H_
#define GPUTC_SIM_MEMORY_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/device.h"

namespace gputc {

// Memory coalescing model (Section 3.2 of the paper, Figures 4 and 5).
//
// A warp's lanes issue one access each per step; the hardware merges lanes
// whose addresses fall into the same `transaction_bytes` segment. Binary
// search over a short list keeps all lanes inside one segment (one
// transaction); over a long list the probes scatter and each lane costs its
// own transaction.

/// Number of memory transactions needed to service one warp-wide access to
/// the element addresses in `element_indices` (global element index space,
/// i.e. address = index * element_bytes). Duplicate/coalesced segments are
/// merged. Empty input costs 0.
int64_t TransactionsForWarpAccess(std::span<const int64_t> element_indices,
                                  const DeviceSpec& spec);

/// Number of probes a binary search performs on a list of length `len`
/// (floor(log2(len)) + 1, the bit width of `len`; 0 for an empty list).
inline int ProbesForBinarySearch(int64_t len) {
  return len <= 0 ? 0 : std::bit_width(static_cast<uint64_t>(len));
}

/// Transactions charged for ONE thread's binary search over a list of length
/// `len` (Figure 4): every probe whose remaining range spans more than one
/// transaction segment costs a fresh transaction; the tail of the search
/// stays inside one segment and costs a single transaction (the paper's
/// Figure 4: 3 transactions on the long list, 1 on the short one).
inline int64_t ThreadBinarySearchTransactions(int64_t len,
                                              const DeviceSpec& spec) {
  if (len <= 0) return 0;
  const int64_t per_txn = spec.elements_per_transaction();
  int64_t transactions = 1;
  for (int64_t range = len; range > per_txn; range >>= 1) ++transactions;
  return transactions;
}

/// Transactions charged for a warp in which `active_lanes` lanes binary
/// search DIFFERENT keys in the SAME list of length `len` (Figure 5, the
/// TriCore warp-per-edge pattern): the first probes hit shared tree levels
/// and coalesce; deeper levels diverge up to min(active_lanes, segments).
int64_t WarpSharedListSearchTransactions(int64_t len, int active_lanes,
                                         const DeviceSpec& spec);

/// Transactions charged per probe step for a warp whose lanes search
/// DIFFERENT lists of length ~`len` laid out consecutively (the Hu
/// thread-per-wedge pattern): short lists pack several lanes per segment,
/// long lists give one transaction per lane.
int64_t WarpDistinctListsTransactionsPerProbe(int64_t len, int active_lanes,
                                              const DeviceSpec& spec);

/// One point of the Figure 8 bandwidth curve.
struct BandwidthSample {
  int64_t list_length = 0;
  /// Consumed memory bandwidth in bytes/cycle for a full warp binary
  /// searching lists of this length.
  double bytes_per_cycle = 0.0;
  double transactions_per_search = 0.0;
  double probes_per_search = 0.0;
};

/// Warp-level search pattern a profile measures — the two access patterns
/// the paper's algorithms use (Section 5.3 notes the parameter
/// determination is repeated per algorithm).
enum class SearchWorkload {
  /// Every lane binary searches its OWN list (Hu / Gunrock / Polak
  /// thread-per-task kernels).
  kDistinctLists,
  /// All lanes search different keys in the SAME list (TriCore / Fox
  /// warp-cooperative kernels).
  kCooperativeWarp,
};

/// Measures the simulated shared/global memory bandwidth of warp binary
/// searches as a function of list length — the simulator's replacement for
/// the paper's nvprof measurement. Deterministic.
class BandwidthProfiler {
 public:
  explicit BandwidthProfiler(
      const DeviceSpec& spec,
      SearchWorkload workload = SearchWorkload::kDistinctLists)
      : spec_(spec), workload_(workload) {}

  /// Profile one list length.
  BandwidthSample Measure(int64_t list_length) const;

  /// Profile a log-spaced sweep of lengths in [1, max_length].
  std::vector<BandwidthSample> Sweep(int64_t max_length) const;

  /// Interpolated BW(d) in bytes/cycle; the paper's BW(d~(v)) input to
  /// F_m(d) = sqrt(BW(d)).
  double BandwidthAt(int64_t list_length) const;

 private:
  DeviceSpec spec_;
  SearchWorkload workload_;
};

}  // namespace gputc

#endif  // GPUTC_SIM_MEMORY_H_
