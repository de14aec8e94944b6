#ifndef GPUTC_ORDER_AORDER_H_
#define GPUTC_ORDER_AORDER_H_

#include <vector>

#include "graph/permutation.h"
#include "graph/types.h"
#include "order/resource_model.h"
#include "util/deadline.h"

namespace gputc {

/// Options of the A-order algorithm (paper Algorithm 2).
struct AOrderOptions {
  /// Vertices per bucket == the work set one block fetches. The paper groups
  /// "every consecutive k vertices"; we default to one block's thread count.
  int bucket_size = 256;

  /// Sort each bucket internally by descending degree before assigning ids.
  /// Bucket membership — and therefore the Eq. 3 objective — is unchanged;
  /// the sort only makes lock-step warps inside a block as uniform as
  /// possible so the balanced mix does not reappear as SIMT divergence.
  bool sort_within_bucket = true;

  /// Optional execution envelope, polled every ~1k placements during bucket
  /// packing. Not owned; null means unconstrained.
  const ExecContext* exec = nullptr;
};

/// Diagnostics of one A-order run.
struct AOrderResult {
  Permutation perm;  // old id -> new id.
  int64_t num_memory_dominated = 0;
  int64_t num_compute_dominated = 0;
  /// True when packing stopped early because options.exec requested a stop.
  /// The permutation is still valid (unplaced vertices keep relative order
  /// at the tail) but is not the A-order optimum; callers re-check their
  /// ExecContext and normally discard it.
  bool aborted = false;
};

/// Runs A-order (Algorithm 2): greedily packs memory-dominated vertices into
/// the bucket with the smallest accumulated memory superiority, then
/// compute-dominated vertices into the bucket with the largest, yielding
/// buckets whose compute and memory demands offset each other. Vertices are
/// dispatched in descending |mem_sup| so the largest contributions are
/// placed while every bucket still has room (the paper does not fix a
/// dispatch order; this is the standard greedy-balancing choice). Ties
/// between buckets go to the lowest bucket id.
///
/// The model is evaluated once per distinct degree and the dispatch order is
/// a counting sort over the distinct |mem_sup| values: O(n + D log D) for n
/// vertices and D distinct degrees. Packing places each run of equal
/// |mem_sup| a level at a time (a level is the open buckets whose sums
/// compare equal), which yields the buckets the vertex-at-a-time greedy
/// picks: O(1) per vertex plus, per level drain, O(log B) in the ordered map
/// of B buckets' levels and the length of the level the moved buckets merge
/// into. Each drain places at least one vertex, so there are at most n, and
/// far fewer when out-degrees repeat (DESIGN.md gives measured counts).
/// sort_within_bucket adds
/// O(n log bucket_size). Memory is O(n + the largest degree). The Eq. 3
/// objective of the result is
/// OrderingImbalanceCost(out_degrees, perm, bucket_size, model).
///
/// `out_degrees[v]` is d~(v) in the directed graph the counting kernel will
/// consume; every entry must be non-negative.
AOrderResult AOrder(const std::vector<EdgeCount>& out_degrees,
                    const ResourceModel& model, const AOrderOptions& options = {});

}  // namespace gputc

#endif  // GPUTC_ORDER_AORDER_H_
