#ifndef GPUTC_TC_CPU_COUNTERS_H_
#define GPUTC_TC_CPU_COUNTERS_H_

#include <cstdint>

#include "graph/directed_graph.h"
#include "graph/graph.h"
#include "util/deadline.h"
#include "util/status.h"

namespace gputc {

// Exact host-side triangle counters (the CPU families of Section 2.2.1).
// TryCountTrianglesDirected is the production counter: every simulated GPU
// kernel and the executor's cpu stage take their count from it. Node- and
// edge-iterator share no code with it, so they stay independent oracles.

/// Node-iterator [Alon et al.]: for every vertex, test all neighbor pairs.
/// O(sum d(v)^2). Exact.
int64_t CountTrianglesNodeIterator(const Graph& g);

/// Edge-iterator [Batagelj & Mrvar]: for every edge, intersect the two
/// endpoint adjacency lists. O(sum over edges of d(u)+d(v)). Exact.
int64_t CountTrianglesEdgeIterator(const Graph& g);

/// Forward algorithm [Schank & Wagner]: orient by degree, then count the
/// oriented graph with CountTrianglesDirected — the standard O(m^(3/2))
/// counter. Exact.
int64_t CountTrianglesForward(const Graph& g);

/// Forward algorithm under an execution envelope: injects at fail point
/// "tc.cpu", then runs TryCountTrianglesDirected. The executor's
/// last-resort fallback stage.
StatusOr<int64_t> TryCountTrianglesForward(const Graph& g,
                                           const ExecContext& ctx);

/// Counts directed wedges closed by an arc on an oriented graph; with an
/// acyclic orientation this equals the triangle count of the underlying
/// undirected graph. Exact. For each u it marks N+(u) in an n-byte array
/// and probes every N+(v), v in N+(u). Arc-balanced vertex ranges run on the
/// host pool (util/parallel.h), with one n-byte mark array per thread, under
/// a "tc.exact" span. Polls `ctx` every 256 vertices and accumulates with a
/// check against ctx.count_limit (OutOfRange past it).
StatusOr<int64_t> TryCountTrianglesDirected(const DirectedGraph& g,
                                            const ExecContext& ctx);

/// Unconstrained TryCountTrianglesDirected; CHECK-aborts on error.
int64_t CountTrianglesDirected(const DirectedGraph& g);

}  // namespace gputc

#endif  // GPUTC_TC_CPU_COUNTERS_H_
