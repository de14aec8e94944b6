#ifndef GPUTC_CORE_PREPROCESS_H_
#define GPUTC_CORE_PREPROCESS_H_

#include <cstdint>
#include <vector>

#include "direction/direction.h"
#include "graph/directed_graph.h"
#include "graph/graph.h"
#include "graph/permutation.h"
#include "order/aorder.h"
#include "order/ordering.h"
#include "order/resource_model.h"
#include "sim/device.h"
#include "util/deadline.h"
#include "util/status.h"

namespace gputc {

class PrepCache;  // core/prep_cache.h

/// Configuration of the paper's preprocessing pipeline: orient the graph
/// (Section 4), then reorder vertices (Section 5). Either step can be set to
/// its baseline to isolate the other, exactly as the evaluation does.
struct PreprocessOptions {
  DirectionStrategy direction = DirectionStrategy::kADirection;
  OrderingStrategy ordering = OrderingStrategy::kAOrder;
  AOrderOptions aorder;
  /// When true, lambda and BW(d) are calibrated against `spec` (Section 5.3)
  /// instead of using the paper's published lambda. Calibration is cheap and
  /// device-specific, so benches enable it.
  bool calibrate = true;
  uint64_t seed = 1;
  /// Optional preprocessing cache (not owned; null = uncached). When set,
  /// TryPreprocess fingerprints (graph, spec, options) into the cache: a hit
  /// rebuilds the oriented+reordered graph from the cached artifact, a miss
  /// computes it once (single-flight across threads) and fills the cache.
  /// The pointer itself is excluded from the fingerprint; every other field
  /// here participates, so the executor's degradation ladder — which copies
  /// these options and edits direction/ordering/calibrate — keys each rung
  /// to its own cache entry automatically.
  PrepCache* prep_cache = nullptr;
};

/// Output of preprocessing: the graph the unmodified counting kernels
/// consume, plus timing and model diagnostics.
struct PreprocessResult {
  /// Oriented and relabeled graph; feed this to any SimTriangleCounter.
  DirectedGraph graph;
  /// old id -> new id mapping applied to the vertices.
  Permutation vertex_perm;
  /// Under OrderingStrategy::kAOrderEdges, Fox's A-ordered arc sequence for
  /// `graph` (FoxCounter::TryAOrderedEdgeOrder); empty under every other
  /// ordering.
  std::vector<int64_t> edge_order;

  double direction_ms = 0.0;  // Host time of the directing step.
  /// Host time of the ordering step: the permutation, the counted CSR's
  /// build and, under kAOrderEdges, the edge order.
  double ordering_ms = 0.0;
  double total_ms = 0.0;      // Sum, i.e. the paper's "preprocessing time".

  double direction_cost = 0.0;  // Eq. 1 of the produced orientation.
  double ordering_cost = 0.0;   // Eq. 3 of the produced ordering.
  double lambda = 0.0;          // Lambda used by the resource model.
};

/// Runs the preprocessing pipeline on `g` for the device `spec`.
PreprocessResult Preprocess(const Graph& g, const DeviceSpec& spec,
                            const PreprocessOptions& options = {});

/// Preprocess under an execution envelope: calibration goes through the
/// "sim.memory" fail point, "preprocess" injects at entry, and A-order's
/// bucket packing (of vertices, or of each of Fox's arc bins) polls `ctx`.
/// A deadline expiry or cancellation observed anywhere inside surfaces as
/// the corresponding Status.
StatusOr<PreprocessResult> TryPreprocess(const Graph& g,
                                         const DeviceSpec& spec,
                                         const PreprocessOptions& options,
                                         const ExecContext& ctx);

}  // namespace gputc

#endif  // GPUTC_CORE_PREPROCESS_H_
