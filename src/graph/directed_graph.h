#ifndef GPUTC_GRAPH_DIRECTED_GRAPH_H_
#define GPUTC_GRAPH_DIRECTED_GRAPH_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace gputc {

/// Oriented version of an undirected Graph: every undirected edge appears as
/// exactly one out-edge, so each triangle is counted exactly once when
/// algorithms enumerate directed wedges.
///
/// Orientations in this library are induced by a *vertex rank* (a total order
/// on vertices): edge (u, v) becomes u -> v iff rank[u] < rank[v]. Every
/// scheme in src/direction (ID-based, degree-based, A-direction peeling,
/// random) produces such a rank, which makes the result acyclic by
/// construction — satisfying the paper's no-directed-3-cycle correctness
/// constraint (Section 4.1). Out-adjacency lists are sorted by neighbor id so
/// binary-search intersection applies.
class DirectedGraph {
 public:
  DirectedGraph() = default;

  /// Orients `g` by `rank` (one entry per vertex; any strict total order —
  /// ties broken by vertex id). `rank` must have g.num_vertices() entries.
  /// Counts the out-degrees straight into the offsets and fills the rows
  /// with FromRankAndPermutation's loop under the identity labels.
  static DirectedGraph FromRank(const Graph& g,
                                const std::vector<VertexId>& rank);

  /// FromRank(g, rank) relabeled by `perm` (old id -> new id), built in one
  /// pass straight from `g`: row perm[u] lists perm[v], sorted, for every
  /// arc u -> v. Equals ApplyPermutation(FromRank(g, rank), perm) bit for
  /// bit without holding the oriented graph. `out_degrees` must be
  /// RankOutDegrees(g, rank) (only its size is checked, and each row's end
  /// in builds without NDEBUG); it is consumed and freed before the
  /// adjacency is allocated. Under the identity permutation each row comes
  /// out id-sorted and is not sorted again.
  static DirectedGraph FromRankAndPermutation(
      const Graph& g, const std::vector<VertexId>& rank,
      std::vector<EdgeCount> out_degrees, const std::vector<VertexId>& perm);

  /// Assembles a DirectedGraph from raw CSR parts. `offsets` has n+1 entries
  /// ending at adj.size(); each out list must be sorted by id. Used by
  /// relabeling, which must preserve an arbitrary orientation exactly.
  static DirectedGraph FromParts(std::vector<EdgeCount> offsets,
                                 std::vector<VertexId> adj);

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  /// Number of directed edges == number of undirected edges in the source.
  EdgeCount num_edges() const { return num_edges_; }

  EdgeCount out_degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  std::span<const VertexId> out_neighbors(VertexId v) const {
    return {adj_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// True if the directed edge u -> v exists (binary search).
  bool HasArc(VertexId u, VertexId v) const;

  /// The paper's d~_avg = |E| / |V| (average out-degree).
  double AverageOutDegree() const;

  EdgeCount MaxOutDegree() const;

  /// Out-degree vector d~(v) for all v. A request counts it from the rank
  /// instead (RankOutDegrees); DirectionCost and the DirectedGraph overload
  /// of ComputeOrdering read it here.
  std::vector<EdgeCount> OutDegrees() const;

  const std::vector<EdgeCount>& offsets() const { return offsets_; }
  const std::vector<VertexId>& adjacency() const { return adj_; }

 private:
  EdgeCount num_edges_ = 0;
  std::vector<EdgeCount> offsets_ = {0};
  std::vector<VertexId> adj_;
};

/// Out-degree of every vertex of `g` under the orientation FromRank(g, rank)
/// builds, counted in one pass on the host pool without building it: all
/// that Eq. 1 and A-order read of the oriented graph.
std::vector<EdgeCount> RankOutDegrees(const Graph& g,
                                      const std::vector<VertexId>& rank);

}  // namespace gputc

#endif  // GPUTC_GRAPH_DIRECTED_GRAPH_H_
