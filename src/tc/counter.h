#ifndef GPUTC_TC_COUNTER_H_
#define GPUTC_TC_COUNTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "graph/directed_graph.h"
#include "sim/device.h"
#include "sim/kernel.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/status.h"

namespace gputc {

/// Result of one (simulated) triangle-counting run: the exact triangle count
/// plus the modelled kernel cost.
struct TcResult {
  int64_t triangles = 0;
  KernelStats kernel;
};

/// Work-distribution unit a kernel reorders by (Section 6.4): Hu, TriCore
/// and Gunrock consume vertex orderings; Fox consumes edge orderings.
enum class ReorderUnit { kVertex, kEdge };

/// Interface of the simulated GPU triangle counters.
///
/// The paper's kernels differ only in how they spread work over blocks,
/// warps and threads, never in which triangles they find. So counting and
/// pricing are split: every counter takes its triangle count from the one
/// exact host counter (TryCountTrianglesDirected), and implements only
/// Price, a cost model that charges every primitive operation (searches,
/// scans, bitmap probes, synchronizations) to the block cost model exactly
/// as the corresponding CUDA kernel would distribute it. The returned
/// KernelStats is the modelled kernel time.
///
/// The input graph must already be preprocessed: oriented by the desired
/// direction strategy and relabeled by the desired ordering — blocks take
/// work for consecutive vertex ids (or edges in CSR order), which is exactly
/// how preprocessing steers the kernels without changing them.
class SimTriangleCounter {
 public:
  virtual ~SimTriangleCounter() = default;

  /// Algorithm name as used in the paper ("Hu", "TriCore", ...).
  virtual std::string name() const = 0;

  /// Counts triangles of `g` on the simulated device under the execution
  /// envelope `ctx`: passes the entry fail point "tc.<algo>", prices the
  /// kernel (Price), then runs the exact count. Both run on the host pool,
  /// under the "tc.<algo>" span's children "tc.price" and "tc.exact". A
  /// cancellation or deadline expiry is observed within one block's work
  /// (or 256 vertices of the exact count) on every thread; a count past
  /// ctx.count_limit surfaces as OutOfRange.
  StatusOr<TcResult> TryCount(const DirectedGraph& g, const DeviceSpec& spec,
                              const ExecContext& ctx) const;

  /// The modelled kernel cost of `g` on `spec`. It depends on degrees only,
  /// never on which triangles exist. Opens the "tc.price" span, and polls
  /// `ctx` and passes the "tc.block" fail point before every priced block
  /// (BlockSkeleton).
  virtual StatusOr<KernelStats> Price(const DirectedGraph& g,
                                      const DeviceSpec& spec,
                                      const ExecContext& ctx) const = 0;

  /// Unconstrained convenience entry point: TryCount under an infinite
  /// context. The benches and oracle tests use this; with no deadline, no
  /// cancellation and no armed fail points it cannot fail, so an error here
  /// CHECK-aborts.
  TcResult Count(const DirectedGraph& g, const DeviceSpec& spec) const {
    StatusOr<TcResult> result = TryCount(g, spec, ExecContext{});
    GPUTC_CHECK(result.ok())
        << name() << "::Count failed: " << result.status().ToString();
    return *std::move(result);
  }

  /// True if the kernel uses intra-block synchronization — the algorithms
  /// A-direction's BSP analysis applies to (Bisson, Hu).
  virtual bool uses_intra_block_sync() const = 0;

  /// True if the kernel intersects lists by binary search — the algorithms
  /// A-order's diversity analysis applies to (all but Bisson's bitmap).
  virtual bool uses_binary_search() const = 0;

  virtual ReorderUnit reorder_unit() const { return ReorderUnit::kVertex; }

 protected:
  /// "tc." plus the lower-cased name() up to any "-variant" suffix: the
  /// entry fail point, the span name and the site block polls report.
  std::string site() const;

  /// TryCount with `price` in place of Price: how Fox prices a caller's
  /// edge order. `price` gets `ctx` re-parented under the "tc.<algo>" span.
  StatusOr<TcResult> TryCountPricedBy(
      const DirectedGraph& g, const ExecContext& ctx,
      const std::function<StatusOr<KernelStats>(const ExecContext&)>& price)
      const;
};

}  // namespace gputc

#endif  // GPUTC_TC_COUNTER_H_
