#ifndef GPUTC_ORDER_ORDERING_H_
#define GPUTC_ORDER_ORDERING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/directed_graph.h"
#include "graph/graph.h"
#include "graph/permutation.h"
#include "order/aorder.h"
#include "order/resource_model.h"

namespace gputc {

/// Vertex (re)ordering strategies evaluated in the paper (Section 6.4).
enum class OrderingStrategy {
  kOriginal,   // Keep input ids ("Origin").
  kDegree,     // Degree-descending ("D-order"), the negative baseline.
  kAOrder,     // The paper's analytic-model ordering (Algorithm 2).
  kDfs,        // DFS discovery order.
  kBfsR,       // Recursive BFS bisection.
  kSlashBurn,  // Hub removal ordering.
  kGro,        // Greedy compactness ordering.
  kBfs,        // Plain BFS discovery order (locality baseline).
  kRcm,        // Reverse Cuthill-McKee (bandwidth-minimizing baseline).
  kRandom,     // Uniform random (ablation).
};

/// Human-readable name matching the paper's tables ("Origin", "D-order",
/// "A-order", "DFS", "BFS-R", "SlashBurn", "GRO", "random").
std::string ToString(OrderingStrategy strategy);

/// Computes the permutation (old id -> new id) for `strategy`.
///
/// `undirected` is the graph being preprocessed; `out_degrees` are its
/// vertices' out-degrees under the orientation the kernel will count, and
/// feed A-order's intensity functions (other strategies ignore them).
/// `model` supplies F_c / F_m / lambda for A-order. `seed` only affects
/// kRandom.
Permutation ComputeOrdering(const Graph& undirected,
                            const std::vector<EdgeCount>& out_degrees,
                            OrderingStrategy strategy,
                            const ResourceModel& model,
                            const AOrderOptions& aorder_options = {},
                            uint64_t seed = 1);

/// The same, reading the out-degrees of `directed`, the oriented graph.
Permutation ComputeOrdering(const Graph& undirected,
                            const DirectedGraph& directed,
                            OrderingStrategy strategy,
                            const ResourceModel& model,
                            const AOrderOptions& aorder_options = {},
                            uint64_t seed = 1);

}  // namespace gputc

#endif  // GPUTC_ORDER_ORDERING_H_
