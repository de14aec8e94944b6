#include "graph/directed_graph.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/parallel.h"

namespace gputc {

namespace {

/// The orientation rule: u -> v iff rank[u] < rank[v]. Ties in rank are
/// broken by vertex id so the order is strict and the orientation acyclic
/// even if a caller passes duplicate ranks.
bool PointsOut(const std::vector<VertexId>& rank, VertexId u, VertexId v) {
  return rank[u] < rank[v] || (rank[u] == rank[v] && u < v);
}

/// Writes each vertex u's out-degree under `rank` to out[u]. Each task
/// writes only its own vertices' slots, so `split`'s ranges run on the host
/// pool; the pass cannot fail.
void CountOutDegrees(const Graph& g, const std::vector<VertexId>& rank,
                     const ParallelSplit& split, EdgeCount* out) {
  const auto count_out = [&](const ParallelTask& task) {
    for (auto u = static_cast<VertexId>(task.begin); u < task.end; ++u) {
      EdgeCount degree = 0;
      for (VertexId v : g.neighbors(u)) degree += PointsOut(rank, u, v);
      out[u] = degree;
    }
    return OkStatus();
  };
  GPUTC_CHECK(ParallelFor(split, count_out).ok());
}

/// Row labels under the identity: source rows are id-sorted, so each out
/// row comes out sorted.
struct SameIds {
  static constexpr bool kSortRows = false;
  VertexId operator()(VertexId v) const { return v; }
};

/// Row labels under a permutation (old id -> new id): rows need a sort.
struct NewIds {
  static constexpr bool kSortRows = true;
  const std::vector<VertexId>& perm;
  VertexId operator()(VertexId v) const { return perm[v]; }
};

/// The one row-filling loop. `offsets` holds row label(u)'s out-degree at
/// index label(u) + 1; row label(u) gets label(v) for every arc u -> v.
/// Each task writes only its own vertices' rows, so `split`'s ranges run on
/// the host pool; the pass cannot fail.
template <typename Label>
DirectedGraph FillRows(const Graph& g, const std::vector<VertexId>& rank,
                       const ParallelSplit& split,
                       std::vector<EdgeCount> offsets, Label label) {
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<VertexId> adj(static_cast<size_t>(offsets.back()));
  const auto fill_rows = [&](const ParallelTask& task) {
    for (auto u = static_cast<VertexId>(task.begin); u < task.end; ++u) {
      const VertexId row = label(u);
      const auto begin = adj.begin() + offsets[row];
      auto next = begin;
      for (VertexId v : g.neighbors(u)) {
        if (PointsOut(rank, u, v)) *next++ = label(v);
      }
      // Degrees that disagree with the rank would spill into the next row.
      GPUTC_DCHECK(next == adj.begin() + offsets[row + 1]);
      if constexpr (Label::kSortRows) std::sort(begin, next);
    }
    return OkStatus();
  };
  GPUTC_CHECK(ParallelFor(split, fill_rows).ok());
  return DirectedGraph::FromParts(std::move(offsets), std::move(adj));
}

}  // namespace

std::vector<EdgeCount> RankOutDegrees(const Graph& g,
                                      const std::vector<VertexId>& rank) {
  GPUTC_CHECK_EQ(rank.size(), static_cast<size_t>(g.num_vertices()));
  std::vector<EdgeCount> out_degrees(g.num_vertices());
  CountOutDegrees(g, rank, SplitByArcs(g.offsets()), out_degrees.data());
  return out_degrees;
}

DirectedGraph DirectedGraph::FromRank(const Graph& g,
                                      const std::vector<VertexId>& rank) {
  GPUTC_CHECK_EQ(rank.size(), static_cast<size_t>(g.num_vertices()));
  const ParallelSplit split = SplitByArcs(g.offsets());
  std::vector<EdgeCount> offsets(static_cast<size_t>(g.num_vertices()) + 1, 0);
  CountOutDegrees(g, rank, split, offsets.data() + 1);
  return FillRows(g, rank, split, std::move(offsets), SameIds{});
}

DirectedGraph DirectedGraph::FromRankAndPermutation(
    const Graph& g, const std::vector<VertexId>& rank,
    std::vector<EdgeCount> out_degrees, const std::vector<VertexId>& perm) {
  const VertexId n = g.num_vertices();
  GPUTC_CHECK_EQ(rank.size(), static_cast<size_t>(n));
  GPUTC_CHECK_EQ(out_degrees.size(), static_cast<size_t>(n));
  GPUTC_CHECK_EQ(perm.size(), static_cast<size_t>(n));
  bool identity = true;
  for (VertexId v = 0; identity && v < n; ++v) identity = perm[v] == v;
  // The scatter writes only the slots of perm[u], so arc-balanced vertex
  // ranges run on the host pool; it cannot fail.
  const ParallelSplit split = SplitByArcs(g.offsets());
  std::vector<EdgeCount> offsets(static_cast<size_t>(n) + 1, 0);
  const auto scatter_degrees = [&](const ParallelTask& task) {
    for (auto u = static_cast<VertexId>(task.begin); u < task.end; ++u) {
      offsets[perm[u] + 1] = out_degrees[u];
    }
    return OkStatus();
  };
  GPUTC_CHECK(ParallelFor(split, scatter_degrees).ok());
  // Free the degrees before the adjacency exists, so the two never coexist.
  out_degrees = std::vector<EdgeCount>();
  if (identity) return FillRows(g, rank, split, std::move(offsets), SameIds{});
  return FillRows(g, rank, split, std::move(offsets), NewIds{perm});
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
