#include "tc/cpu_counters.h"

#include <cstdint>
#include <vector>

#include "direction/direction.h"
#include "obs/trace.h"
#include "tc/intersect.h"
#include "util/checked_math.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/parallel.h"

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

namespace {

/// The exact count of vertices [begin, end) into `triangles`, with `marked`
/// (n bytes, all zero, and zero again on return) as the mark array. Polls
/// `ctx` every 256 vertex ids.
Status CountVertexRange(const DirectedGraph& g, const ExecContext& ctx,
                        VertexId begin, VertexId end,
                        std::vector<uint8_t>& marked,
                        CheckedInt64& triangles) {
  constexpr VertexId kPollStride = 256;
  for (VertexId u = begin; u < end; ++u) {
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
  return OkStatus();
}

}  // namespace

StatusOr<int64_t> TryCountTrianglesDirected(const DirectedGraph& g,
                                            const ExecContext& ctx) {
  Span span = StartSpan(ctx, "tc.exact");
  const ParallelSplit split = SplitByArcs(g.offsets());
  span.SetAttr("threads", static_cast<int64_t>(split.threads));
  // One mark array per thread, each built in place: copying one zeroed
  // array would hold one more n-byte array than admission charges. The
  // caller allocates everything the tasks write, so pool threads never hold
  // memory in malloc arenas of their own.
  std::vector<std::vector<uint8_t>> marks(static_cast<size_t>(split.threads));
  for (std::vector<uint8_t>& marked : marks) marked.assign(g.num_vertices(), 0);
  std::vector<CheckedInt64> partial(static_cast<size_t>(split.tasks()),
                                    CheckedInt64(ctx.count_limit));
  GPUTC_RETURN_IF_ERROR(ParallelFor(split, [&](const ParallelTask& task) {
    return CountVertexRange(g, ctx, static_cast<VertexId>(task.begin),
                            static_cast<VertexId>(task.end),
                            marks[task.thread], partial[task.index]);
  }));
  CheckedInt64 triangles(ctx.count_limit);
  for (const CheckedInt64& part : partial) triangles.Add(part);
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
