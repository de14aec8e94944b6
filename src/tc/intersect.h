#ifndef GPUTC_TC_INTERSECT_H_
#define GPUTC_TC_INTERSECT_H_

#include <cstdint>
#include <span>

#include "graph/types.h"

namespace gputc {

/// Size of the intersection of two sorted id spans (merge). Exact; used by
/// the edge-iterator oracle and the apps (k-truss support, common
/// neighbours). Directed triangle counts come from TryCountTrianglesDirected
/// instead, so this oracle shares no code with the production counter.
inline int64_t SortedIntersectionSize(std::span<const VertexId> a,
                                      std::span<const VertexId> b) {
  int64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace gputc

#endif  // GPUTC_TC_INTERSECT_H_
