#ifndef GPUTC_TC_COST_RULES_H_
#define GPUTC_TC_COST_RULES_H_

#include "sim/block_cost.h"
#include "sim/device.h"

namespace gputc {

// Shared costing rules for the simulated triangle-counting kernels. Every
// algorithm charges the same primitive operations through these helpers so
// that cross-algorithm comparisons (Tables 5/6, Figure 10) are apples to
// apples. The rules follow the coalescing model in sim/memory.h.

/// One thread binary searching a GLOBAL-memory list of length `len`.
ThreadWork BinarySearchGlobal(int64_t len, const DeviceSpec& spec);

/// One thread binary searching a SHARED-memory list of length `len`
/// (Hu-style staged tiles; transactions go to the shared-memory pipeline).
ThreadWork BinarySearchShared(int64_t len, const DeviceSpec& spec);

/// One thread binary searching `keys` ASCENDING keys in the same list of
/// length `len` (the per-arc batch every counter actually issues). Compute
/// is keys * probes; transactions are capped by the list's segment count —
/// consecutive searches share the top of the probe tree and revisit the
/// same segments, which the hardware serves from cache. `shared` applies
/// the shared-memory discount.
ThreadWork BinarySearchBatch(int64_t keys, int64_t len, bool shared,
                             const DeviceSpec& spec);

/// One thread's share of a warp-cooperative binary search for a batch of
/// keys in the same list (TriCore): `len` is the target list length,
/// `active_lanes` how many lanes participate.
ThreadWork WarpSearchLaneShare(int64_t len, int active_lanes,
                               const DeviceSpec& spec);

/// One thread streaming `elements` consecutive elements from global memory
/// (sequential scan; coalesces within the thread).
ThreadWork SequentialScan(int64_t elements, const DeviceSpec& spec);

/// One thread's share of a warp-cooperative load of `elements` consecutive
/// elements (fully coalesced).
ThreadWork CoalescedLoadLaneShare(int64_t elements, int active_lanes,
                                  const DeviceSpec& spec);

/// One scattered bitmap probe or set in global memory (Bisson).
ThreadWork BitmapAccess(const DeviceSpec& spec);

/// One thread sort-merging two lists of lengths `len_a` and `len_b`
/// (Gunrock's merge path): linear compute, sequential reads.
ThreadWork SortMerge(int64_t len_a, int64_t len_b, const DeviceSpec& spec);

/// Charges warp `warp` of the open block for resolving one arc (u, v)
/// cooperatively (TriCore, Fox's heavy bins): keys stream from N+(v) in
/// coalesced chunks of warp_size, and every active lane binary searches its
/// key in N+(u). `du`, `dv` are the out-degrees d~(u), d~(v).
void ChargeWarpSearch(BlockCostModel& model, int warp, int64_t du, int64_t dv,
                      const DeviceSpec& spec);

}  // namespace gputc

#endif  // GPUTC_TC_COST_RULES_H_
