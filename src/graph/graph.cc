#include "graph/graph.h"

#include <algorithm>
#include <string>

#include "graph/validate.h"
#include "util/logging.h"

namespace gputc {
namespace {

Status NotCanonical(const std::string& detail) {
  return DataLossError("adjacency is not canonical: " + detail +
                       "; run 'gputc doctor --repair' to fix");
}

std::string RowName(VertexId u) { return "row " + std::to_string(u); }

Status NoMirror(VertexId u, VertexId v) {
  return NotCanonical("edge (" + std::to_string(u) + ", " +
                      std::to_string(v) + ") has no mirror in " +
                      RowName(v));
}

/// The canonical-form check over a CSR that passed GraphDoctor::CheckCsr, in
/// one pass with no search. Symmetry uses a mirror cursor per row: rows are
/// scanned in order, so the entries of row v below v are matched in
/// increasing order by the rows that list v. An upper entry (u, v), v > u,
/// must be the next unmatched entry of row v; when row u is reached, every
/// entry of it below u must already be matched.
Status CheckCanonical(const std::vector<EdgeCount>& offsets,
                      const std::vector<VertexId>& adj) {
  const VertexId n = static_cast<VertexId>(offsets.size() - 1);
  std::vector<EdgeCount> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    const EdgeCount begin = offsets[u];
    for (EdgeCount i = begin; i < offsets[u + 1]; ++i) {
      const VertexId v = adj[static_cast<size_t>(i)];
      if (i > begin) {
        const VertexId prev = adj[static_cast<size_t>(i - 1)];
        if (v == prev) {
          return NotCanonical(RowName(u) + " lists " + std::to_string(v) +
                              " twice");
        }
        if (v < prev) {
          return NotCanonical(RowName(u) + " is not sorted at position " +
                              std::to_string(i - begin) + " (" +
                              std::to_string(v) + " after " +
                              std::to_string(prev) + ")");
        }
      }
      if (v == u) return NotCanonical(RowName(u) + " lists itself");
      if (v > u) {
        EdgeCount& mirror = cursor[v];
        if (mirror == offsets[v + 1] ||
            adj[static_cast<size_t>(mirror)] != u) {
          return NoMirror(u, v);
        }
        ++mirror;
      } else if (i >= cursor[u]) {
        return NoMirror(u, v);
      }
    }
  }
  return OkStatus();
}

}  // namespace

Graph Graph::FromEdgeList(EdgeList edges) {
  edges.Normalize();
  Graph g;
  const VertexId n = edges.num_vertices();
  g.num_edges_ = edges.num_edges();
  g.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges.edges()) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adj_.resize(static_cast<size_t>(2) * static_cast<size_t>(g.num_edges_));
  std::vector<EdgeCount> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges.edges()) {
    g.adj_[static_cast<size_t>(cursor[e.u]++)] = e.v;
    g.adj_[static_cast<size_t>(cursor[e.v]++)] = e.u;
  }
  // Normalized input is sorted by (u, v), so each u's neighbors > u arrive in
  // order, but neighbors < u (inserted while scanning their own rows) also
  // arrive in order; the two runs interleave, so sort each list once.
  for (VertexId v = 0; v < n; ++v) {
    std::sort(g.adj_.begin() + g.offsets_[v], g.adj_.begin() + g.offsets_[v + 1]);
  }
  return g;
}

StatusOr<Graph> Graph::FromCsr(std::vector<EdgeCount> offsets,
                               std::vector<VertexId> adjacency) {
  if (offsets.empty()) {
    return DataLossError("offsets array is empty, want n+1 entries");
  }
  const uint64_t n = offsets.size() - 1;
  const uint64_t m = adjacency.size() / 2;
  GPUTC_RETURN_IF_ERROR(GraphDoctor().CheckCounts(n, m));
  GPUTC_RETURN_IF_ERROR(GraphDoctor::CheckCsr(n, m, offsets, adjacency));
  GPUTC_RETURN_IF_ERROR(CheckCanonical(offsets, adjacency));
  Graph g;
  g.num_edges_ = static_cast<EdgeCount>(m);
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adjacency);
  return g;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double Graph::AverageDegree() const {
  if (num_vertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) /
         static_cast<double>(num_vertices());
}

EdgeCount Graph::MaxDegree() const {
  EdgeCount max_d = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    max_d = std::max(max_d, degree(v));
  }
  return max_d;
}

EdgeList Graph::ToEdgeList() const {
  EdgeList list(num_vertices());
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (VertexId v : neighbors(u)) {
      if (u < v) list.Add(u, v);
    }
  }
  return list;
}

}  // namespace gputc
