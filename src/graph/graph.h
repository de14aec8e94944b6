#ifndef GPUTC_GRAPH_GRAPH_H_
#define GPUTC_GRAPH_GRAPH_H_

#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "util/status.h"

namespace gputc {

/// Immutable undirected graph in CSR form.
///
/// Canonical by construction: adjacency lists are sorted by neighbor id,
/// contain each neighbor once, never list their own vertex, and every entry
/// has its mirror (v in row u iff u in row v). num_edges() counts each
/// undirected edge once; the CSR stores both endpoints, so the adjacency
/// array has 2 * num_edges() entries. The two factories below are the only
/// ways to build a non-empty Graph, and each establishes the invariant.
class Graph {
 public:
  Graph() = default;

  /// Builds the CSR from an edge list. The list is normalized internally;
  /// callers may pass raw generator output.
  static Graph FromEdgeList(EdgeList edges);

  /// Adopts CSR arrays (`offsets` has n+1 entries, `adjacency` 2m) after
  /// one linear check: the structure GraphDoctor::CheckCsr checks and the
  /// default ingestion caps, then rows strictly increasing, no row listing
  /// its own vertex, and every entry mirrored. A failure is DataLoss; the
  /// canonical-form failures say "not canonical" and name the row or edge.
  static StatusOr<Graph> FromCsr(std::vector<EdgeCount> offsets,
                                 std::vector<VertexId> adjacency);

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  EdgeCount num_edges() const { return num_edges_; }

  EdgeCount degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adj_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// True if (u, v) is an edge; binary search over the smaller endpoint list.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Average degree 2|E|/|V|; this equals twice the paper's d~_avg = |E|/|V|.
  double AverageDegree() const;

  /// Maximum vertex degree (0 for an empty graph).
  EdgeCount MaxDegree() const;

  /// Recovers a normalized edge list (u < v per edge), e.g. for relabeling.
  EdgeList ToEdgeList() const;

  const std::vector<EdgeCount>& offsets() const { return offsets_; }
  const std::vector<VertexId>& adjacency() const { return adj_; }

 private:
  EdgeCount num_edges_ = 0;
  std::vector<EdgeCount> offsets_ = {0};
  std::vector<VertexId> adj_;
};

}  // namespace gputc

#endif  // GPUTC_GRAPH_GRAPH_H_
