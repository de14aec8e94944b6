#ifndef GPUTC_UTIL_PARALLEL_H_
#define GPUTC_UTIL_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/status.h"

namespace gputc {

// Host threads for the per-vertex and per-block loops of one request: the
// exact count, Price's block loop and the CSR builds. One process-wide pool
// holds at most ParallelismLimit() - 1 workers, started on first use and
// asleep on a condition variable while idle; the calling thread always takes
// tasks too. A loop is split into contiguous item ranges of about equal arc
// weight (SplitByArcs), and ParallelFor runs them. Each task's output is
// stored by task index and merged in order by the caller, so results are
// bit for bit those of one thread, which runs the same per-range code over
// the whole range.

/// No task is smaller than this many arcs, so a loop of fewer than two
/// grains runs inline on the caller as one task.
inline constexpr int64_t kParallelGrain = int64_t{1} << 16;

/// Threads one loop may use at most: the hardware threads, at least 1. The
/// bound on per-thread scratch, which admission reserves.
int ParallelismLimit();

/// Counts one request in flight for as long as it lives. A loop's width is
/// ParallelismLimit() divided by the requests in flight (at least 1), so a
/// saturated service runs each request on one thread, as before, while a
/// lone request takes every core.
class ParallelRequestScope {
 public:
  ParallelRequestScope();
  ~ParallelRequestScope();
  ParallelRequestScope(const ParallelRequestScope&) = delete;
  ParallelRequestScope& operator=(const ParallelRequestScope&) = delete;
};

/// How one loop over items [0, n) is split: task t covers items
/// [bounds[t], bounds[t + 1]), and at most `threads` threads run the tasks.
struct ParallelSplit {
  int threads = 1;
  std::vector<int64_t> bounds;

  int tasks() const { return static_cast<int>(bounds.size()) - 1; }
};

/// Splits the loop whose item i weighs arcs[i + 1] - arcs[i] (n + 1
/// nondecreasing entries, like CSR offsets) for the width allowed now:
/// contiguous tasks of about equal weight, none below kParallelGrain, a few
/// per thread so a slow task can be balanced by the others. At width 1, or
/// below two grains, one task covers [0, n). May start pool workers; a
/// worker that fails to start (say, under RLIMIT_AS) narrows the split.
ParallelSplit SplitByArcs(std::span<const int64_t> arcs);

/// One task of a split, as its body sees it.
struct ParallelTask {
  /// Which of the split's threads runs it, in [0, threads): the index of
  /// that thread's scratch. One thread runs one task at a time.
  int thread = 0;
  /// Its position in the split; outputs stored by it merge in item order.
  int index = 0;
  int64_t begin = 0;  // First item (inclusive).
  int64_t end = 0;    // Last item (exclusive).
};

/// Runs body(task) for every task of `split`, on the calling thread and up
/// to split.threads - 1 pool workers. A worker runs a task inside a
/// FailPointScope when the caller is inside one, and never touches the
/// tracer. Once a task fails, tasks not yet started are skipped, and the
/// first failure is returned. With one thread every task runs inline, in
/// order.
Status ParallelFor(const ParallelSplit& split,
                   const std::function<Status(const ParallelTask&)>& body);

}  // namespace gputc

#endif  // GPUTC_UTIL_PARALLEL_H_
