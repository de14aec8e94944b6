#ifndef GPUTC_TC_WORK_PARTITION_H_
#define GPUTC_TC_WORK_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/directed_graph.h"

namespace gputc {

/// A block's work set: the directed arcs of `bucket_size` consecutive
/// vertex ids (the paper's bucket B_i, Section 3.2.4: "given the order of
/// vertices, blocks usually fetch consecutive vertices as their work sets").
/// Arc indices refer to CSR order.
struct ArcRange {
  int64_t begin = 0;  // First arc index (inclusive).
  int64_t end = 0;    // Last arc index (exclusive).

  int64_t size() const { return end - begin; }
};

/// The CSR arc bounds of the per-block ranges of `bucket_size` consecutive
/// vertices each: block b owns arcs [bounds[b], bounds[b + 1]), one entry
/// per block plus one. This is the mapping through which a vertex
/// reordering steers every kernel's block composition without changing the
/// kernel: heavy vertices concentrated in one bucket (D-order) produce
/// straggler blocks, while A-order's packing balances both block load and
/// the compute/memory mix.
inline std::vector<EdgeCount> VertexBucketArcBounds(const DirectedGraph& g,
                                                    int bucket_size) {
  std::vector<EdgeCount> bounds = {0};
  const VertexId n = g.num_vertices();
  for (VertexId start = 0; start < n;
       start += static_cast<VertexId>(bucket_size)) {
    const VertexId stop = static_cast<VertexId>(
        std::min<uint64_t>(n, static_cast<uint64_t>(start) +
                                  static_cast<uint64_t>(bucket_size)));
    bounds.push_back(g.offsets()[stop]);
  }
  return bounds;
}

/// Source vertex of CSR arcs asked for in nondecreasing index order, starting
/// from vertex `first` (at or before the first arc's source). It steps past
/// vertices whose arcs end at or before the arc, so walking a block's arcs
/// costs O(arcs + vertices) and needs no per-arc source array.
class SourceCursor {
 public:
  SourceCursor(const DirectedGraph& g, VertexId first)
      : offsets_(g.offsets().data()), u_(first) {}

  VertexId operator()(int64_t arc) {
    while (offsets_[u_ + 1] <= arc) ++u_;
    return u_;
  }

 private:
  const EdgeCount* offsets_;
  VertexId u_;
};

/// The arc's source vertex for each CSR arc index, for kernels that visit
/// arcs in an arbitrary order (Fox's edge orders).
inline std::vector<VertexId> ArcSources(const DirectedGraph& g) {
  std::vector<VertexId> sources(static_cast<size_t>(g.num_edges()));
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (int64_t i = g.offsets()[u]; i < g.offsets()[u + 1]; ++i) {
      sources[static_cast<size_t>(i)] = u;
    }
  }
  return sources;
}

}  // namespace gputc

#endif  // GPUTC_TC_WORK_PARTITION_H_
