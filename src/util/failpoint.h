#ifndef GPUTC_UTIL_FAILPOINT_H_
#define GPUTC_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace gputc {

// RocksDB-style named fail points for fault-injection testing.
//
// Sites are compiled into production binaries at the failure boundaries the
// code must recover from. The canonical site list (keep this current — it is
// the one place every site is documented):
//
//   executor        io.load, preprocess, sim.memory, tc.<algorithm> counter
//                   entries, and the tc.block / tc.cpu loop polls
//   batch service   service.enqueue, service.admit, service.worker,
//                   service.journal (between WAL commit and journal emit)
//   durable I/O     durable.commit, durable.append, durable.append.torn
//   storage syscalls fs.write (before any byte), fs.write.short (first half
//                   lands for real, then the error returns — a genuine torn
//                   write), fs.fsync (never retried: fsyncgate), fs.rename,
//                   fs.statvfs — the util/fs_io.h boundary every durable
//                   sink writes through; arm with the errno aliases below
//   storage policy  storage.preflight (batch space estimate, before the
//                   manifest is admitted)
//   prep cache      cache.load (tier-2 artifact read), cache.store (tier-2
//                   artifact write, before any byte lands) — both recover
//                   by recompute, never by failing the request
//   write-ahead log wal.intent, wal.done
//   worker pool     worker.spawn (supervisor side, before fork),
//                   worker.exec (child side: exec a missing binary),
//                   worker.hang (worker side: stop heartbeating and sleep
//                   forever instead of failing — exercises the hang kill),
//                   worker.response.torn (worker side: crash between the two
//                   halves of a result frame, leaving a torn frame the
//                   supervisor must classify as a crash)
//
// Evaluation is double-gated so a site costs one relaxed
// atomic load when idle: the process-wide registry must have at least one
// armed point or observer, AND the calling thread must be inside a
// FailPointScope — the executor opens one around every run, so injections
// land on resilient paths instead of failing oracle code that has no
// recovery story.
//
// Arming is programmatic (Arm / ArmFromString) or via the GPUTC_FAILPOINTS
// environment variable, read once at first registry use. The format is a
// ';'-separated list of
//
//   site=code[@count][%prob][$seed][^skip]
//
//   code    error to inject: internal, data_loss, resource_exhausted,
//           deadline_exceeded, cancelled, invalid_argument, out_of_range,
//           failed_precondition, unimplemented, not_found — or an errno
//           alias (enospc, eio, edquot) which injects the Status a real
//           storage fault of that errno maps to, with the symbolic errno
//           name embedded in the message so metrics label it the same way —
//           or the special action `crash`, which terminates the process
//           with _Exit(137) the instant the site fires (no destructors, no
//           stream flushes: the closest user-space approximation of
//           SIGKILL). The crash harness arms it at the durable-layer sites
//           to prove that every artifact survives an ill-timed death.
//   @count  fire only on the first `count` hits (default: every hit)
//   %prob   fire with probability `prob` per hit (seeded xorshift, $seed)
//   ^skip   let the first `skip` hits pass untouched before the point is
//           eligible to fire — "the disk was fine, then it filled":
//           fs.fsync=enospc^4 succeeds four fsyncs, then fails every one
//
// e.g. GPUTC_FAILPOINTS="tc.hu=internal@2;io.load=data_loss%0.01$7"
//      GPUTC_FAILPOINTS="wal.done=crash@1"
//      GPUTC_FAILPOINTS="fs.fsync=enospc^6"

/// What happens at an armed site.
struct FailPointSpec {
  /// Inject an error Status, or kill the process on the spot.
  enum class Action { kError, kCrash };
  Action action = Action::kError;
  StatusCode code = StatusCode::kInternal;
  /// Fire on the first `count` hits only; -1 fires on every hit.
  int64_t count = -1;
  /// Per-hit firing probability in [0, 1], drawn from a seeded xorshift.
  double probability = 1.0;
  uint64_t seed = 1;
  /// Let the first `skip` hits pass before the point may fire — models a
  /// disk that worked, then failed.
  int64_t skip = 0;
  /// Extra text appended to the injected message ("injected ENOSPC" for the
  /// errno aliases), so StorageErrnoLabelFromStatus sees the same symbolic
  /// name a real fault would carry.
  std::string detail;
};

class FailPointRegistry {
 public:
  /// Process-wide registry. The first call parses GPUTC_FAILPOINTS
  /// (malformed entries are skipped with a warning).
  static FailPointRegistry& Instance();

  void Arm(std::string site, FailPointSpec spec);
  void Disarm(const std::string& site);

  /// Arms every entry of a "site=code[@count][%prob][$seed];..." schedule.
  /// Invalid entries make the whole call fail without arming anything.
  Status ArmFromString(std::string_view schedule);

  /// Removes all armed points, observers, and hit counters. Tests call this
  /// first so an ambient GPUTC_FAILPOINTS cannot perturb their schedule.
  void Reset();

  /// Observer invoked on every in-scope hit of `site` (1-based hit number),
  /// whether or not the site is armed to fail — the hook the cancellation
  /// tests use to cancel deterministically mid-kernel.
  void SetObserver(std::string site, std::function<void(int64_t)> observer);

  /// In-scope hits of `site` since the last Reset. Only armed or observed
  /// sites are counted.
  int64_t hits(const std::string& site) const;

  std::vector<std::string> ArmedSites() const;

  /// Evaluates one hit of `site`: bumps counters, runs the observer, and
  /// returns the injected error when the site fires. Called via
  /// CheckFailPoint, which applies the fast-path and scope gates.
  Status Evaluate(std::string_view site);

  bool has_armed_or_observed() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  FailPointRegistry();

  struct Impl;
  Impl* impl_;  // Intentionally leaked; the registry lives forever.
  /// Fast-path gate: true while any point is armed or observed.
  std::atomic<bool> active_{false};
};

/// RAII gate enabling fail-point evaluation on the current thread. Nestable.
class FailPointScope {
 public:
  FailPointScope();
  ~FailPointScope();
  FailPointScope(const FailPointScope&) = delete;
  FailPointScope& operator=(const FailPointScope&) = delete;

  /// True when the calling thread is inside at least one scope.
  static bool active();
};

/// OkStatus, or the injected error when `site` is armed, and the calling
/// thread is inside a FailPointScope. ~1 relaxed atomic load when idle.
Status CheckFailPoint(std::string_view site);

}  // namespace gputc

/// Early-return injection site; place at the failure boundary under test.
/// Usable in functions returning Status or StatusOr<T>.
#define GPUTC_INJECT_FAULT(site) \
  GPUTC_RETURN_IF_ERROR(::gputc::CheckFailPoint(site))

#endif  // GPUTC_UTIL_FAILPOINT_H_
