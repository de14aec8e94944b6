#ifndef GPUTC_SERVICE_MANIFEST_H_
#define GPUTC_SERVICE_MANIFEST_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/executor.h"
#include "graph/graph.h"
#include "util/status.h"

namespace gputc {

class PrepCache;  // core/prep_cache.h

/// One request of a batch manifest: which graph to count triangles on, plus
/// optional per-request policy overrides.
struct BatchRequest {
  /// Stable journal key: "<line>:<source>" — unique even when the same
  /// source appears on several manifest lines.
  std::string id;
  /// The source token as written in the manifest.
  std::string source;

  enum class Kind { kDataset, kFile, kGenerate };
  Kind kind = Kind::kDataset;

  /// Dataset name (kDataset), path (kFile), or family (kGenerate:
  /// rmat | powerlaw | er | ws).
  std::string target;
  /// Generator parameters (kGenerate), e.g. {"scale","9"},{"seed","3"}.
  std::map<std::string, std::string> params;

  /// Per-request overrides; negative / empty means "use the batch default".
  double timeout_ms = -1.0;
  std::string fallback;
  /// Fail-point schedule ("site=code[@count];...") armed for this request
  /// only — the chaos/testing hook that lets a batch poison exactly one
  /// request. Under `--isolate` the schedule is armed inside the worker
  /// subprocess that executes the request; in-process it arms the (process
  /// wide) registry, which is exactly the blast-radius difference the
  /// isolation tests demonstrate.
  std::string failpoints;
};

// Manifest format: one request per line.
//
//   # comment (also '%'), blank lines ignored
//   dataset:email-Eucore
//   email-Eucore                     (no ':' and no '/' or '.' -> dataset)
//   file:graphs/g1.txt
//   graphs/g2.bin                    (a '/' or '.' -> file path)
//   gen:rmat:scale=9,edge-factor=8,seed=3
//   gen:powerlaw:nodes=400,gamma=2.1,min-degree=2,max-degree=60,seed=7
//   gen:er:nodes=1000,edges=5000,seed=1
//   gen:ws:nodes=1000,k=4,beta=0.05,seed=1
//
// A source may be followed by whitespace-separated per-request overrides:
//
//   dataset:gowalla timeout-ms=250 fallback=Hu,cpu
//   gen:er:nodes=100,edges=300 failpoints=tc.block=crash@1
//
// Parsing is strict: unknown generator families, malformed key=value pairs,
// and unknown override keys fail with InvalidArgument naming the line.

/// Parses a manifest stream. The returned requests keep manifest order.
StatusOr<std::vector<BatchRequest>> ParseManifest(std::istream& in);

/// Loads and parses a manifest file; NotFound when it cannot be opened.
StatusOr<std::vector<BatchRequest>> LoadManifest(const std::string& path);

/// Loads or generates the graph a request names. Generation parameters are
/// validated (Try* generators); files go through the standard loaders. The
/// "io.load" fail point is armed on every path, so batch chaos schedules can
/// inject load faults per request.
StatusOr<Graph> MaterializeRequest(const BatchRequest& request);

/// Terminal classification of one submitted request. Every Submit produces
/// exactly one journal entry with one of these outcomes — nothing is dropped
/// silently.
enum class RequestOutcome {
  kOk,        // Counted with the requested (base) configuration.
  kDegraded,  // Counted, but on a fallback stage or degraded variant.
  kRejected,  // Shed before execution: queue full, drain, admission refusal,
              // or every backend's breaker open.
  kFailed     // Execution started and did not produce a count.
};
inline constexpr size_t kNumRequestOutcomes = 4;

/// Stable lower-case name ("ok", "degraded", "rejected", "failed").
const char* RequestOutcomeName(RequestOutcome outcome);

/// One journal entry.
struct RequestReport {
  std::string id;      // BatchRequest::id.
  std::string source;  // BatchRequest::source.
  RequestOutcome outcome = RequestOutcome::kFailed;
  Status status;            // OK for kOk/kDegraded; the reason otherwise.
  std::string stage;        // Winning fallback stage ("" when none).
  std::string variant;      // Winning degradation variant ("" when none).
  int64_t triangles = 0;
  /// Correlation id linking this journal line to the request's span tree in
  /// the trace export. Unique per report, assigned even when the request is
  /// shed before execution (so rejected work is still correlatable).
  uint64_t trace_id = 0;
  double queue_ms = 0.0;    // Submit-to-worker-pickup wait.
  double materialize_ms = 0.0;  // Loading/parsing the graph source.
  double admit_ms = 0.0;        // Waiting on the memory admission gate.
  double exec_ms = 0.0;     // Worker processing time (load + count).
  int attempts = 0;         // ExecutionTrace length.
  std::vector<std::string> trace;  // One line per attempt, for the journal.
  /// Backoff hint for kRejected outcomes: how many milliseconds the client
  /// should wait before retrying. Emitted in ToJson only when >= 0, so
  /// journals that never set it are unchanged.
  int64_t retry_after_ms = -1;
  /// False when this line lost its durability cover: the WAL is running
  /// under --wal-policy degrade and could not persist the done record, so a
  /// crash after this line may re-run the request. Emitted in ToJson only
  /// when false ("durable":false), so healthy-disk journals are unchanged.
  bool durable = true;

  /// Single-line JSON object for the machine-readable journal.
  std::string ToJson() const;
};

/// The outcome of a request that reached its count: kFailed when `status`
/// is not OK, kOk when `primary` (the service's first fallback stage) won on
/// its base variant, and kDegraded when any other stage or variant won.
RequestOutcome CountedOutcome(const RequestReport& report,
                              const std::string& primary);

/// The caller's step between RunRequest's load and its count, for checks
/// that need the loaded graph (the batch service's admission gate). It may
/// replace `*chain`; a non-OK return ends the request with that status and
/// with `*outcome`, which starts as kFailed.
using BeforeCount =
    std::function<Status(const Graph& graph, std::vector<FallbackStage>* chain,
                         RequestOutcome* outcome)>;

/// The one path from a request to its report, shared by the batch service,
/// its cpu failover and `gputc worker`. Loads the request's graph, timing
/// the load into `materialize_ms` (a failure is kFailed "materializing
/// '<source>'"), runs `before_count` when set, then counts with
/// ExecuteResilient over `chain` under `policy`, with default
/// PreprocessOptions and `cache` (may be null) as the preprocessing cache,
/// inside an "execute" span under `policy.parent_span`. It records
/// `attempts`, one `trace` line per attempt, the error as `status` or the
/// winning `stage`, `variant` and `triangles`, and the CountedOutcome
/// against `primary`. Returns the execution trace, empty when the request
/// stopped before its count.
ExecutionTrace RunRequest(const BatchRequest& request,
                          std::vector<FallbackStage> chain,
                          ExecutionPolicy policy, PrepCache* cache,
                          const std::string& primary, RequestReport* report,
                          const BeforeCount& before_count = nullptr);

}  // namespace gputc

#endif  // GPUTC_SERVICE_MANIFEST_H_
