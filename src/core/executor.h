#ifndef GPUTC_CORE_EXECUTOR_H_
#define GPUTC_CORE_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "graph/graph.h"
#include "sim/device.h"
#include "tc/registry.h"
#include "util/deadline.h"
#include "util/status.h"

namespace gputc {

// The resilient front door of the library: wraps preprocess + count in an
// execution policy (deadline, modelled-cost ceiling, host memory budget)
// and a fallback chain, so a failure anywhere in the pipeline — an injected
// fault, a deadline expiry, a budget breach, a simulated-cost blowup, a
// triangle-count overflow — degrades the attempt or moves to the next
// algorithm instead of crashing, and every attempt leaves a trace record.

/// Resource limits of one execution. Zero/negative limits mean "none".
struct ExecutionPolicy {
  /// When the whole execution (all stages together) must stop. The caller
  /// starts the clock, so time spent before the call (a queue pickup, the
  /// input load) counts against the same budget. Infinite by default.
  Deadline deadline;
  /// Ceiling on the *modelled* kernel time of an accepted result: a run
  /// whose simulated cost blows past this is treated as a failed attempt.
  double max_model_ms = 0.0;
  /// Host memory budget; checked against EstimateRequestHostBytes up front.
  int64_t mem_budget_bytes = 0;
  /// Triangle accumulator ceiling (ExecContext::count_limit). Production
  /// leaves it at int64 max; tests lower it to exercise overflow handling.
  int64_t count_limit = std::numeric_limits<int64_t>::max();
  /// External cancellation handle threaded into the execution context.
  /// Copies share one flag, so another thread can stop the run: the batch
  /// service's drain arms its token to fire when the grace period ends. A
  /// default-constructed token never fires.
  CancelToken cancel;
  /// Observability sink (optional, not owned). When set, the executor opens
  /// a "validate" span for the up-front GraphDoctor pass and one "attempt"
  /// span per stage x variant; pipeline stage spans nest under the attempt.
  Tracer* tracer = nullptr;
  /// Trace to join. Zero with a tracer set means "start a fresh trace".
  uint64_t trace_id = 0;
  /// Span the execution nests under (e.g. the batch service's per-request
  /// root). Zero means top-level.
  uint64_t parent_span = 0;
  /// Stage-progress hook (optional). Invoked with "validate" before the
  /// up-front validation pass and "<stage>/<variant>" at the start of every
  /// attempt. Isolated `gputc worker` processes use it to emit one heartbeat
  /// frame per executor stage, so their supervisor can tell a *slow* stage
  /// (heartbeats still flowing) from a *hung* one (heartbeats stopped).
  /// Must not throw; called on the executing thread.
  std::function<void(const std::string&)> on_stage;
};

/// One stage of the fallback chain: a simulated GPU algorithm, or the exact
/// host-side forward counter as the last resort.
struct FallbackStage {
  bool is_cpu = false;
  TcAlgorithm algorithm = TcAlgorithm::kHu;  // Ignored when is_cpu.

  std::string name() const;
};

/// Parses a comma-separated chain like "hu,polak,cpu" (names
/// case-insensitive, matching `gputc count --algorithm` plus "cpu").
/// InvalidArgument with the valid choices on an unknown name or empty
/// chain, and on a duplicate stage — a repeated backend would silently
/// retry the same failure mode while looking like extra redundancy.
StatusOr<std::vector<FallbackStage>> ParseFallbackChain(std::string_view spec);

/// What happened to one attempt (stage x degradation variant).
struct AttemptRecord {
  std::string stage;    // FallbackStage::name().
  std::string variant;  // "base", "no-aorder", "no-adirection".
  Status status;        // OkStatus when this attempt produced the result.
  double elapsed_ms = 0.0;  // Host wall-clock of the attempt.
  double model_ms = 0.0;    // Modelled kernel ms (0 when it never counted).
};

/// Chronological record of an execution, one entry per attempt.
struct ExecutionTrace {
  std::vector<AttemptRecord> attempts;

  /// Human-readable multi-line summary ("attempt 1: Hu/base -> INTERNAL:
  /// ...").
  std::string Summary() const;
};

/// A successful execution: the run plus which attempt produced it.
struct ExecutionResult {
  RunResult run;
  std::string stage;
  std::string variant;
};

/// Bytes of host memory a request on `g` peaks at, input included, when it
/// recomputes its preprocessing: EstimateHostBytesCached plus the direction
/// rank, which lives until the counted CSR is built, and the out-degrees'
/// excess over that CSR's adjacency (they are freed before it is
/// allocated). The quantity ExecutionPolicy::mem_budget_bytes is checked
/// against. host_memory_test holds Hu, TriCore and Gunrock-bs requests to
/// it with a counting allocator; Fox's bins and Bisson's per-block records
/// are not charged.
int64_t EstimateHostBytes(const Graph& g);

/// EstimateHostBytes for a request whose preprocessing artifact is already
/// cached: the input CSR, the counted CSR and permutation copied from the
/// artifact, the exact count's n-byte mark array for each of up to
/// ParallelismLimit() host threads, and a fixed allowance for per-request
/// records. Below the cold estimate by at least the rank, which only a
/// recompute holds; admission reserves it for cache hits.
int64_t EstimateHostBytesCached(const Graph& g);

/// EstimateHostBytes for a recompute that fills a preprocessing cache: the
/// artifact the cache keeps and the counted CSR and permutation the request
/// copies out of it are live together, so the counted CSR and the
/// permutation are charged once more. Once the request ends, the artifact
/// counts against the cache's own byte budget instead.
int64_t EstimateHostBytesFill(const Graph& g);

/// What admission reserves for a request on `g` whose base attempt
/// preprocesses under `options` on `spec`: EstimateHostBytesCached when
/// options.prep_cache holds the artifact, EstimateHostBytesFill when it
/// misses, and EstimateHostBytes without a cache.
int64_t EstimateRequestHostBytes(const Graph& g, const DeviceSpec& spec,
                                 const PreprocessOptions& options);

/// Runs the fallback chain over `g` under `policy`.
///
/// Semantics:
///  - The call counts as one request in flight (ParallelRequestScope): the
///    host pool's threads are shared among the calls running at once.
///  - The graph is validated once up front (GraphDoctor); invalid input
///    fails immediately — no fallback can fix a corrupt CSR.
///  - Every attempt runs inside a FailPointScope, so armed fail points
///    (GPUTC_FAILPOINTS) inject into it but not into unsuspecting callers.
///  - A stage's base attempt uses `base_options`; its two degraded retries
///    first drop A-order, then A-direction + calibration.
///  - DeadlineExceeded and Cancelled stop the whole chain (retrying cannot
///    beat an expired clock); any other failure moves down the ladder.
///  - A result whose modelled kernel time exceeds max_model_ms is recorded
///    as ResourceExhausted and the chain continues.
///
/// On success returns the first accepted run; otherwise the last attempt's
/// error (deadline/cancel) or ResourceExhausted naming the exhausted chain.
/// `trace_out` (optional) receives the full attempt log either way.
StatusOr<ExecutionResult> ExecuteResilient(const Graph& g,
                                           const DeviceSpec& spec,
                                           const ExecutionPolicy& policy,
                                           const std::vector<FallbackStage>& chain,
                                           const PreprocessOptions& base_options,
                                           ExecutionTrace* trace_out = nullptr);

}  // namespace gputc

#endif  // GPUTC_CORE_EXECUTOR_H_
