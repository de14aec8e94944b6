#include "graph/permutation.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"
#include "util/parallel.h"

namespace gputc {

bool IsPermutation(const Permutation& perm) {
  std::vector<bool> seen(perm.size(), false);
  for (VertexId v : perm) {
    if (v >= perm.size() || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

Permutation IdentityPermutation(VertexId n) {
  Permutation perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  return perm;
}

Permutation InversePermutation(const Permutation& perm) {
  Permutation inv(perm.size());
  for (VertexId v = 0; v < perm.size(); ++v) inv[perm[v]] = v;
  return inv;
}

Permutation Compose(const Permutation& outer, const Permutation& inner) {
  GPUTC_CHECK_EQ(outer.size(), inner.size());
  Permutation result(inner.size());
  for (VertexId v = 0; v < inner.size(); ++v) result[v] = outer[inner[v]];
  return result;
}

Graph ApplyPermutation(const Graph& g, const Permutation& perm) {
  GPUTC_CHECK_EQ(perm.size(), static_cast<size_t>(g.num_vertices()));
  EdgeList list(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) list.Add(perm[u], perm[v]);
    }
  }
  list.set_num_vertices(g.num_vertices());
  return Graph::FromEdgeList(std::move(list));
}

DirectedGraph ApplyPermutation(const DirectedGraph& g,
                               const Permutation& perm) {
  GPUTC_CHECK_EQ(perm.size(), static_cast<size_t>(g.num_vertices()));
  const VertexId n = g.num_vertices();
  // Rebuild the CSR directly so the orientation (which a rank-based
  // reconstruction could not recover) is preserved verbatim. Both
  // per-vertex passes write only the slots of perm[u], so arc-balanced
  // vertex ranges run on the host pool; neither can fail.
  const ParallelSplit split = SplitByArcs(g.offsets());
  std::vector<EdgeCount> offsets(static_cast<size_t>(n) + 1, 0);
  const auto scatter_degrees = [&](const ParallelTask& task) {
    for (auto u = static_cast<VertexId>(task.begin); u < task.end; ++u) {
      offsets[perm[u] + 1] = g.out_degree(u);
    }
    return OkStatus();
  };
  GPUTC_CHECK(ParallelFor(split, scatter_degrees).ok());
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<VertexId> adj(static_cast<size_t>(offsets.back()));
  const auto fill_rows = [&](const ParallelTask& task) {
    for (auto u = static_cast<VertexId>(task.begin); u < task.end; ++u) {
      EdgeCount cursor = offsets[perm[u]];
      for (VertexId v : g.out_neighbors(u)) {
        adj[static_cast<size_t>(cursor++)] = perm[v];
      }
      std::sort(adj.begin() + offsets[perm[u]], adj.begin() + cursor);
    }
    return OkStatus();
  };
  GPUTC_CHECK(ParallelFor(split, fill_rows).ok());

  return DirectedGraph::FromParts(std::move(offsets), std::move(adj));
}

Permutation PermutationFromSequence(const std::vector<VertexId>& order) {
  Permutation perm(order.size());
  for (VertexId i = 0; i < order.size(); ++i) perm[order[i]] = i;
  return perm;
}

}  // namespace gputc
