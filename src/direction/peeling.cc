#include "direction/peeling.h"

#include <algorithm>
#include <cstdint>

#include "obs/trace.h"
#include "util/logging.h"

namespace gputc {
namespace {

enum VertexState : uint8_t { kFree, kQueued, kPeeled };

}  // namespace

PeelingResult ADirectionPeel(const Graph& g, const PeelingOptions& options) {
  GPUTC_CHECK_GT(options.threshold_growth, 1.0);
  Span span = options.exec != nullptr ? StartSpan(*options.exec, "direction.peel")
                                      : Span();
  const VertexId n = g.num_vertices();
  PeelingResult result;
  result.peel_order.reserve(n);
  if (n == 0) return result;

  // A simple graph's degrees are below n, so they fit the vertex id type.
  std::vector<VertexId> residual(n);
  VertexId max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    residual[v] = static_cast<VertexId>(g.degree(v));
    max_degree = std::max(max_degree, residual[v]);
  }
  std::vector<VertexState> state(n, kFree);
  std::vector<VertexId> frontier;
  std::vector<VertexId> slots;  // Counting-sort cursors, one per residual.

  // Initial threshold is the paper's d~_avg = |E| / |V| (at least 1 so the
  // first round can make progress on degree-1 fringes).
  double threshold = std::max(
      1.0, static_cast<double>(g.num_edges()) / static_cast<double>(n));

  std::vector<VertexId>& order = result.peel_order;
  while (order.size() < n) {
    // Residuals are integers, so `residual <= threshold` is
    // `residual <= floor(threshold)`; the cap keeps the cast in range once
    // the threshold passes every degree.
    const VertexId limit =
        threshold >= static_cast<double>(max_degree)
            ? max_degree
            : static_cast<VertexId>(threshold);
    // Collect this round's frontier: free vertices at or below the
    // threshold, in id order.
    frontier.clear();
    for (VertexId v = 0; v < n; ++v) {
      if (state[v] == kFree && residual[v] <= limit) frontier.push_back(v);
    }
    if (!frontier.empty()) {
      // Seed the queue in ascending (residual degree, id) order so edges run
      // from smaller to larger degree, matching Lines 9-11: a stable counting
      // sort over the residuals of an id-ordered frontier.
      slots.assign(static_cast<size_t>(limit) + 2, 0);
      for (VertexId v : frontier) ++slots[residual[v] + 1];
      for (size_t r = 1; r < slots.size(); ++r) slots[r] += slots[r - 1];
      const size_t head = order.size();
      order.resize(head + frontier.size());
      for (VertexId v : frontier) {
        order[head + slots[residual[v]]++] = v;
        state[v] = kQueued;
      }
      // peel_order is the FIFO queue: vertices are popped in the order they
      // were pushed, so the pop cursor walks it and pushes append to it.
      for (size_t next = head; next < order.size(); ++next) {
        const VertexId v = order[next];
        state[v] = kPeeled;
        result.peel_degree =
            std::max(result.peel_degree, static_cast<EdgeCount>(residual[v]));
        // Peeling v implicitly orients every still-undirected incident edge
        // away from v; neighbours lose one residual degree and may join the
        // frontier (Lines 12-16).
        for (VertexId nbr : g.neighbors(v)) {
          if (state[nbr] == kPeeled) continue;
          --residual[nbr];
          if (state[nbr] == kFree && residual[nbr] <= limit) {
            state[nbr] = kQueued;
            order.push_back(nbr);
          }
        }
      }
    }
    threshold *= options.threshold_growth;
    ++result.rounds;
  }
  GPUTC_CHECK_EQ(result.peel_order.size(), static_cast<size_t>(n));
  span.SetAttr("rounds", static_cast<int64_t>(result.rounds));
  span.SetAttr("peel_degree", static_cast<int64_t>(result.peel_degree));
  return result;
}

}  // namespace gputc
