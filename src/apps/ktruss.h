#ifndef GPUTC_APPS_KTRUSS_H_
#define GPUTC_APPS_KTRUSS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "graph/edge_list.h"
#include "graph/graph.h"
#include "util/status.h"

namespace gputc {

// k-truss decomposition (Wang & Cheng) — a triangle-counting application
// from the paper's introduction. The k-truss of G is the maximal subgraph in
// which every edge participates in at least k-2 triangles.

/// Result of a full truss decomposition.
struct TrussDecompositionResult {
  /// The normalized edge list the trussness values index into.
  EdgeList edges;
  /// trussness[e]: the largest k such that edge e belongs to the k-truss.
  /// Always >= 2 (every edge is in the 2-truss).
  std::vector<int> trussness;
  /// Largest k with a non-empty k-truss.
  int max_trussness = 2;
};

/// Computes the trussness of every edge by support peeling.
/// O(m^(3/2) + m log m). Validates `g` first (see TryDecomposeTruss) and
/// fatally aborts on a graph that fails validation.
TrussDecompositionResult DecomposeTruss(const Graph& g);

/// DecomposeTruss behind the validated front door: GraphDoctor examines `g`
/// (count caps, wedge bound) and a graph that fails is refused with a
/// context-bearing Status. The CSR itself is canonical by construction:
/// Graph::FromCsr refuses the asymmetric adjacency that would crash the
/// peeling loop.
StatusOr<TrussDecompositionResult> TryDecomposeTruss(const Graph& g);

/// The subgraph formed by edges with trussness >= k (same vertex ids,
/// non-truss edges removed).
Graph KTrussSubgraph(const Graph& g, int k);

/// Histogram: for each k, how many edges have trussness exactly k.
std::map<int, int64_t> TrussProfile(const TrussDecompositionResult& result);

}  // namespace gputc

#endif  // GPUTC_APPS_KTRUSS_H_
