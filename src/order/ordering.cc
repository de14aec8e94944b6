#include "order/ordering.h"

#include "order/classic_orders.h"
#include "util/logging.h"

namespace gputc {

std::string ToString(OrderingStrategy strategy) {
  switch (strategy) {
    case OrderingStrategy::kOriginal:
      return "Origin";
    case OrderingStrategy::kDegree:
      return "D-order";
    case OrderingStrategy::kAOrder:
      return "A-order";
    case OrderingStrategy::kDfs:
      return "DFS";
    case OrderingStrategy::kBfsR:
      return "BFS-R";
    case OrderingStrategy::kSlashBurn:
      return "SlashBurn";
    case OrderingStrategy::kGro:
      return "GRO";
    case OrderingStrategy::kBfs:
      return "BFS";
    case OrderingStrategy::kRcm:
      return "RCM";
    case OrderingStrategy::kRandom:
      return "random";
    case OrderingStrategy::kAOrderEdges:
      return "A-order(edges)";
  }
  return "unknown";
}

Permutation ComputeOrdering(const Graph& undirected,
                            const std::vector<EdgeCount>& out_degrees,
                            OrderingStrategy strategy,
                            const ResourceModel& model,
                            const AOrderOptions& aorder_options,
                            uint64_t seed) {
  GPUTC_CHECK_EQ(static_cast<size_t>(undirected.num_vertices()),
                 out_degrees.size());
  switch (strategy) {
    case OrderingStrategy::kOriginal:
    case OrderingStrategy::kAOrderEdges:
      return IdentityPermutation(undirected.num_vertices());
    case OrderingStrategy::kDegree:
      return DegreeOrder(undirected);
    case OrderingStrategy::kAOrder:
      return AOrder(out_degrees, model, aorder_options).perm;
    case OrderingStrategy::kDfs:
      return DfsOrder(undirected);
    case OrderingStrategy::kBfsR:
      return BfsROrder(undirected);
    case OrderingStrategy::kSlashBurn:
      return SlashBurnOrder(undirected);
    case OrderingStrategy::kGro:
      return GroOrder(undirected);
    case OrderingStrategy::kBfs:
      return BfsOrder(undirected);
    case OrderingStrategy::kRcm:
      return RcmOrder(undirected);
    case OrderingStrategy::kRandom:
      return RandomOrder(undirected.num_vertices(), seed);
  }
  GPUTC_LOG(Fatal) << "unhandled ordering strategy";
  return {};
}

Permutation ComputeOrdering(const Graph& undirected,
                            const DirectedGraph& directed,
                            OrderingStrategy strategy,
                            const ResourceModel& model,
                            const AOrderOptions& aorder_options,
                            uint64_t seed) {
  return ComputeOrdering(undirected, directed.OutDegrees(), strategy, model,
                         aorder_options, seed);
}

}  // namespace gputc
