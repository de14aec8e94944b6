#include "tc/cpu_counters.h"

#include <cstdint>
#include <vector>

#include "direction/direction.h"
#include "obs/trace.h"
#include "tc/intersect.h"
#include "util/checked_math.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace gputc {

int64_t CountTrianglesNodeIterator(const Graph& g) {
  int64_t triangles = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        if (g.HasEdge(nbrs[i], nbrs[j])) ++triangles;
      }
    }
  }
  // Every triangle is seen once per corner.
  GPUTC_CHECK_EQ(triangles % 3, 0);
  return triangles / 3;
}

int64_t CountTrianglesEdgeIterator(const Graph& g) {
  int64_t triangles = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) {
        triangles += SortedIntersectionSize(g.neighbors(u), g.neighbors(v));
      }
    }
  }
  // Every triangle is seen once per edge.
  GPUTC_CHECK_EQ(triangles % 3, 0);
  return triangles / 3;
}

int64_t CountTrianglesForward(const Graph& g) {
  return CountTrianglesDirected(Orient(g, DirectionStrategy::kDegreeBased));
}

StatusOr<int64_t> TryCountTrianglesForward(const Graph& g,
                                           const ExecContext& ctx) {
  GPUTC_INJECT_FAULT("tc.cpu");
  Span span = StartSpan(ctx, "tc.cpu");
  GPUTC_ASSIGN_OR_RETURN(
      const int64_t triangles,
      TryCountTrianglesDirected(Orient(g, DirectionStrategy::kDegreeBased),
                                ctx));
  span.SetAttr("triangles", triangles);
  return triangles;
}

StatusOr<int64_t> TryCountTrianglesDirected(const DirectedGraph& g,
                                            const ExecContext& ctx) {
  CheckedInt64 triangles(ctx.count_limit);
  std::vector<uint8_t> marked(g.num_vertices(), 0);
  constexpr VertexId kPollStride = 256;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (u % kPollStride == 0) {
      GPUTC_RETURN_IF_ERROR(ctx.CheckContinue("tc.exact"));
    }
    // Mark N+(u); every marked w in some N+(v), v in N+(u), closes the
    // wedge (u, v, w).
    const auto out_u = g.out_neighbors(u);
    for (VertexId w : out_u) marked[w] = 1;
    int64_t closed = 0;
    for (VertexId v : out_u) {
      for (VertexId w : g.out_neighbors(v)) closed += marked[w];
    }
    for (VertexId w : out_u) marked[w] = 0;
    triangles.Add(closed);
  }
  GPUTC_RETURN_IF_ERROR(triangles.ToStatus("triangle count"));
  return triangles.value();
}

int64_t CountTrianglesDirected(const DirectedGraph& g) {
  StatusOr<int64_t> triangles = TryCountTrianglesDirected(g, ExecContext{});
  GPUTC_CHECK(triangles.ok())
      << "CountTrianglesDirected failed: " << triangles.status().ToString();
  return *triangles;
}

}  // namespace gputc
