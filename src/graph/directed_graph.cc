#include "graph/directed_graph.h"

#include <algorithm>

#include "util/logging.h"
#include "util/parallel.h"

namespace gputc {

DirectedGraph DirectedGraph::FromRank(const Graph& g,
                                      const std::vector<VertexId>& rank) {
  GPUTC_CHECK_EQ(rank.size(), static_cast<size_t>(g.num_vertices()));
  DirectedGraph d;
  const VertexId n = g.num_vertices();
  d.num_edges_ = g.num_edges();
  d.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  // Ties in rank are broken by vertex id so the order is strict and the
  // orientation acyclic even if a caller passes duplicate ranks.
  auto points_out = [&rank](VertexId u, VertexId v) {
    return rank[u] < rank[v] || (rank[u] == rank[v] && u < v);
  };
  // Both per-vertex passes write only vertex u's own slots, so arc-balanced
  // vertex ranges run on the host pool; neither can fail.
  const ParallelSplit split = SplitByArcs(g.offsets());
  const auto count_out = [&](const ParallelTask& task) {
    for (auto u = static_cast<VertexId>(task.begin); u < task.end; ++u) {
      EdgeCount out = 0;
      for (VertexId v : g.neighbors(u)) out += points_out(u, v);
      d.offsets_[u + 1] = out;
    }
    return OkStatus();
  };
  GPUTC_CHECK(ParallelFor(split, count_out).ok());
  for (size_t i = 1; i < d.offsets_.size(); ++i) {
    d.offsets_[i] += d.offsets_[i - 1];
  }
  d.adj_.resize(static_cast<size_t>(d.offsets_.back()));
  const auto fill_out = [&](const ParallelTask& task) {
    for (auto u = static_cast<VertexId>(task.begin); u < task.end; ++u) {
      EdgeCount next = d.offsets_[u];
      for (VertexId v : g.neighbors(u)) {
        if (points_out(u, v)) d.adj_[static_cast<size_t>(next++)] = v;
      }
    }
    return OkStatus();
  };
  GPUTC_CHECK(ParallelFor(split, fill_out).ok());
  // Source adjacency is id-sorted, so each out list is already id-sorted.
  return d;
}

DirectedGraph DirectedGraph::FromParts(std::vector<EdgeCount> offsets,
                                       std::vector<VertexId> adj) {
  GPUTC_CHECK(!offsets.empty());
  GPUTC_CHECK_EQ(offsets.front(), 0);
  GPUTC_CHECK_EQ(offsets.back(), static_cast<EdgeCount>(adj.size()));
  DirectedGraph d;
  d.num_edges_ = static_cast<EdgeCount>(adj.size());
  d.offsets_ = std::move(offsets);
  d.adj_ = std::move(adj);
  return d;
}

bool DirectedGraph::HasArc(VertexId u, VertexId v) const {
  const auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double DirectedGraph::AverageOutDegree() const {
  if (num_vertices() == 0) return 0.0;
  return static_cast<double>(num_edges_) / static_cast<double>(num_vertices());
}

EdgeCount DirectedGraph::MaxOutDegree() const {
  EdgeCount max_d = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    max_d = std::max(max_d, out_degree(v));
  }
  return max_d;
}

std::vector<EdgeCount> DirectedGraph::OutDegrees() const {
  std::vector<EdgeCount> degs(num_vertices());
  for (VertexId v = 0; v < num_vertices(); ++v) degs[v] = out_degree(v);
  return degs;
}

}  // namespace gputc
