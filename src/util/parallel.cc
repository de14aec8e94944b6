#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>

#include "util/failpoint.h"

namespace gputc {
namespace {

/// Tasks per thread when the loop is long enough: a thread that finishes
/// early takes another's share instead of idling behind a slow range.
constexpr int64_t kTasksPerThread = 4;

std::atomic<int> g_requests_in_flight{0};

/// One ParallelFor call, on its caller's stack until every worker that
/// joined it has left.
struct Job {
  Job(const ParallelSplit& split,
      const std::function<Status(const ParallelTask&)>& body, bool in_scope)
      : split(split), body(body), in_scope(in_scope) {}

  const ParallelSplit& split;
  const std::function<Status(const ParallelTask&)>& body;
  const bool in_scope;  // The caller runs inside a FailPointScope.
  std::atomic<int> next_task{0};
  std::atomic<bool> failed{false};

  std::mutex error_mu;
  Status error;  // The first failure; guarded by error_mu.

  // Guarded by Pool::mu_.
  int joined = 1;   // Threads that took part; the caller is thread 0.
  int working = 0;  // Workers that joined and have not yet left.
};

/// Claims and runs `job`'s tasks as thread `thread` until none is left or
/// one has failed. The library reports errors as Status and never catches
/// an exception, so one thrown by a task ends the process here, as it would
/// have on a single thread, instead of unwinding past a Job that workers
/// still use.
void RunTasks(Job& job, int thread) noexcept {
  const int tasks = job.split.tasks();
  while (!job.failed.load(std::memory_order_relaxed)) {
    const int t = job.next_task.fetch_add(1, std::memory_order_relaxed);
    if (t >= tasks) return;
    Status status = job.body(ParallelTask{thread, t, job.split.bounds[t],
                                          job.split.bounds[t + 1]});
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (job.error.ok()) job.error = std::move(status);
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
}

/// The process-wide workers. Intentionally leaked, like the fail-point
/// registry: its threads sleep on wake_ until the process exits.
class Pool {
 public:
  static Pool& Instance() {
    static Pool* const pool = new Pool();
    return *pool;
  }

  /// Starts workers until `wanted` exist or one fails to start; returns how
  /// many exist.
  int Reserve(int wanted) {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < wanted && !cannot_grow_) {
      try {
        workers_.emplace_back([this] { WorkerLoop(); });
      } catch (const std::system_error&) {
        cannot_grow_ = true;  // Keep the pool smaller; never abort.
      }
    }
    return static_cast<int>(workers_.size());
  }

  Status Run(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_.push_back(&job);
    }
    for (int i = 1; i < job.split.threads; ++i) wake_.notify_one();
    RunTasks(job, 0);
    std::unique_lock<std::mutex> lock(mu_);
    // No worker may join once the caller has run out of tasks.
    const auto it = std::find(open_.begin(), open_.end(), &job);
    if (it != open_.end()) open_.erase(it);
    left_.wait(lock, [&job] { return job.working == 0; });
    return job.error;
  }

 private:
  Pool() = default;

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      wake_.wait(lock, [this] { return !open_.empty(); });
      Job& job = *open_.front();
      const int thread = job.joined++;
      if (job.joined == job.split.threads) open_.pop_front();
      ++job.working;
      lock.unlock();
      {
        std::optional<FailPointScope> scope;
        if (job.in_scope) scope.emplace();
        RunTasks(job, thread);
      }
      lock.lock();
      if (--job.working == 0) left_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;  // A job has a free thread slot.
  std::condition_variable left_;  // A worker left its job.
  std::deque<Job*> open_;         // Jobs with free slots, oldest first.
  std::vector<std::thread> workers_;
  bool cannot_grow_ = false;
};

}  // namespace

int ParallelismLimit() {
  static const int limit =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return limit;
}

ParallelRequestScope::ParallelRequestScope() {
  g_requests_in_flight.fetch_add(1, std::memory_order_relaxed);
}

ParallelRequestScope::~ParallelRequestScope() {
  g_requests_in_flight.fetch_sub(1, std::memory_order_relaxed);
}

ParallelSplit SplitByArcs(std::span<const int64_t> arcs) {
  ParallelSplit split;
  const int64_t n = arcs.empty() ? 0 : static_cast<int64_t>(arcs.size()) - 1;
  const int64_t total = n > 0 ? arcs.back() - arcs.front() : 0;
  const int requests =
      std::max(1, g_requests_in_flight.load(std::memory_order_relaxed));
  int64_t threads = std::min<int64_t>(
      std::max(1, ParallelismLimit() / requests), total / kParallelGrain);
  if (threads > 1) {
    threads = std::min<int64_t>(
        threads,
        1 + Pool::Instance().Reserve(static_cast<int>(threads) - 1));
  }
  if (threads <= 1) {
    split.bounds = {0, n};
    return split;
  }
  split.threads = static_cast<int>(threads);
  const int64_t tasks =
      threads * std::clamp<int64_t>(total / (kParallelGrain * threads), 1,
                                    kTasksPerThread);
  split.bounds.resize(static_cast<size_t>(tasks) + 1);
  split.bounds.front() = 0;
  split.bounds.back() = n;
  for (int64_t t = 1; t < tasks; ++t) {
    const int64_t target = arcs.front() + total * t / tasks;
    split.bounds[t] = std::lower_bound(arcs.begin() + split.bounds[t - 1],
                                       arcs.end(), target) -
                      arcs.begin();
  }
  return split;
}

Status ParallelFor(const ParallelSplit& split,
                   const std::function<Status(const ParallelTask&)>& body) {
  if (split.threads <= 1) {
    for (int t = 0; t < split.tasks(); ++t) {
      GPUTC_RETURN_IF_ERROR(
          body(ParallelTask{0, t, split.bounds[t], split.bounds[t + 1]}));
    }
    return OkStatus();
  }
  Job job(split, body, FailPointScope::active());
  return Pool::Instance().Run(job);
}

}  // namespace gputc
