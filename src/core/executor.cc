#include "core/executor.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "core/prep_cache.h"
#include "graph/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tc/cpu_counters.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace gputc {
namespace {

std::string ToLower(std::string_view s) {
  std::string lower(s);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lower;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

constexpr TcAlgorithm kAllAlgorithms[] = {
    TcAlgorithm::kGunrockBinarySearch, TcAlgorithm::kGunrockSortMerge,
    TcAlgorithm::kTriCore,             TcAlgorithm::kFox,
    TcAlgorithm::kBisson,              TcAlgorithm::kHu,
    TcAlgorithm::kPolak};

std::string ValidStageNames() {
  std::string names;
  for (TcAlgorithm a : kAllAlgorithms) {
    names += ToString(a);
    names += ' ';
  }
  names += "cpu";
  return names;
}

/// The degradation ladder of one stage. Variant 0 is the caller's options;
/// each further variant gives up one analytic optimization, trading kernel
/// balance for a simpler preprocessing path that avoids whatever failed.
/// The copy carries base.prep_cache along, and the edited fields are all
/// part of the cache fingerprint — so each rung resolves to its own cache
/// entry, never to a stale artifact of a different variant.
PreprocessOptions DegradedOptions(const PreprocessOptions& base, int variant) {
  PreprocessOptions options = base;
  if (variant >= 1) options.ordering = OrderingStrategy::kOriginal;
  if (variant >= 2) {
    options.direction = DirectionStrategy::kDegreeBased;
    options.calibrate = false;
  }
  return options;
}

/// The rungs of every non-cpu stage's ladder: base, no-aorder,
/// no-adirection.
constexpr int kLadderRungs = 3;

const char* VariantName(int variant) {
  switch (variant) {
    case 0:
      return "base";
    case 1:
      return "no-aorder";
    default:
      return "no-adirection";
  }
}

bool IsStopError(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kCancelled;
}

void RecordAttempt(const AttemptRecord& record) {
  MetricsRegistry::Global()
      .GetCounter("gputc_attempts_total",
                  "Executor attempts by fallback stage and outcome",
                  {{"result", record.status.ok() ? "ok" : "error"},
                   {"stage", record.stage}})
      .Increment();
}

}  // namespace

std::string FallbackStage::name() const {
  return is_cpu ? "cpu" : ToString(algorithm);
}

StatusOr<std::vector<FallbackStage>> ParseFallbackChain(
    std::string_view spec) {
  std::vector<FallbackStage> chain;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(',', begin);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = Trim(spec.substr(begin, end - begin));
    begin = end + 1;
    if (entry.empty()) continue;
    const std::string lower = ToLower(entry);
    FallbackStage stage;
    if (lower == "cpu") {
      stage.is_cpu = true;
    } else {
      bool found = false;
      for (TcAlgorithm a : kAllAlgorithms) {
        if (lower == ToLower(ToString(a))) {
          stage.algorithm = a;
          found = true;
          break;
        }
      }
      if (!found) {
        return InvalidArgumentError("unknown fallback stage '" +
                                    std::string(entry) +
                                    "'; valid choices: " + ValidStageNames());
      }
    }
    for (const FallbackStage& existing : chain) {
      if (existing.is_cpu == stage.is_cpu &&
          (stage.is_cpu || existing.algorithm == stage.algorithm)) {
        return InvalidArgumentError(
            "duplicate fallback stage '" + stage.name() +
            "'; each backend may appear in the chain at most once");
      }
    }
    chain.push_back(stage);
  }
  if (chain.empty()) {
    return InvalidArgumentError("fallback chain is empty; valid stages: " +
                                ValidStageNames());
  }
  return chain;
}

std::string ExecutionTrace::Summary() const {
  std::string out;
  for (size_t i = 0; i < attempts.size(); ++i) {
    const AttemptRecord& a = attempts[i];
    out += "attempt " + std::to_string(i + 1) + ": " + a.stage + "/" +
           a.variant + " -> " +
           (a.status.ok() ? "OK" : a.status.ToString()) + " (" +
           std::to_string(a.elapsed_ms) + " ms host";
    if (a.model_ms > 0.0) {
      out += ", " + std::to_string(a.model_ms) + " ms modelled";
    }
    out += ")\n";
  }
  return out;
}

namespace {

/// What neither estimate itemises: the attempt log, span and metric labels,
/// and each pool loop's split bounds and per-task partial sums. A Hu request
/// on four threads holds a few hundred bytes of them at its peak.
constexpr int64_t kRequestRecordBytes = int64_t{16} << 10;

/// The counted CSR ((n + 1) offsets, m arcs) and its permutation.
int64_t CountedBytes(const Graph& g) {
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  return (n + 1) * static_cast<int64_t>(sizeof(EdgeCount)) +
         g.num_edges() * static_cast<int64_t>(sizeof(VertexId)) +
         n * static_cast<int64_t>(sizeof(VertexId));
}

}  // namespace

int64_t EstimateHostBytes(const Graph& g) {
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  const int64_t m = g.num_edges();
  const int64_t rank = n * static_cast<int64_t>(sizeof(VertexId));
  const int64_t out_degrees = n * static_cast<int64_t>(sizeof(EdgeCount));
  const int64_t counted_adj = m * static_cast<int64_t>(sizeof(VertexId));
  // A recompute also holds the direction rank until the counted CSR is
  // built, and the out-degrees until just before that CSR's adjacency is
  // allocated: of those, only their excess over the adjacency counts.
  return EstimateHostBytesCached(g) + rank +
         std::max<int64_t>(0, out_degrees - counted_adj);
}

int64_t EstimateHostBytesCached(const Graph& g) {
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  const int64_t input =
      (n + 1) * static_cast<int64_t>(sizeof(EdgeCount)) +
      2 * g.num_edges() * static_cast<int64_t>(sizeof(VertexId));
  // The input CSR, the one counted CSR and its permutation, and the exact
  // count's n-byte mark array per host thread.
  return input + CountedBytes(g) + ParallelismLimit() * n +
         kRequestRecordBytes;
}

int64_t EstimateHostBytesFill(const Graph& g) {
  return EstimateHostBytes(g) + CountedBytes(g);
}

int64_t EstimateRequestHostBytes(const Graph& g, const DeviceSpec& spec,
                                 const PreprocessOptions& options) {
  if (options.prep_cache == nullptr) return EstimateHostBytes(g);
  return options.prep_cache->Contains(PrepFingerprint(g, spec, options))
             ? EstimateHostBytesCached(g)
             : EstimateHostBytesFill(g);
}

StatusOr<ExecutionResult> ExecuteResilient(
    const Graph& g, const DeviceSpec& spec, const ExecutionPolicy& policy,
    const std::vector<FallbackStage>& chain,
    const PreprocessOptions& base_options, ExecutionTrace* trace_out) {
  if (chain.empty()) {
    return InvalidArgumentError("fallback chain is empty");
  }
  // Concurrent requests share the host pool's threads between them.
  const ParallelRequestScope in_flight;

  ExecContext ctx;
  ctx.deadline = policy.deadline;
  ctx.count_limit = policy.count_limit;
  ctx.cancel = policy.cancel;
  ctx.tracer = policy.tracer;
  if (policy.tracer != nullptr) {
    ctx.trace_id =
        policy.trace_id != 0 ? policy.trace_id : policy.tracer->NewTraceId();
    ctx.parent_span = policy.parent_span;
  }

  // Validate once up front (count caps and the wedge bound; the Graph is
  // canonical by construction): every stage would see the same graph, so
  // invalid input is terminal, not a fallback trigger.
  {
    if (policy.on_stage) policy.on_stage("validate");
    Span validate_span = StartSpan(ctx, "validate");
    validate_span.SetAttr("vertices", static_cast<int64_t>(g.num_vertices()));
    validate_span.SetAttr("edges", g.num_edges());
    const ValidationReport report = GraphDoctor().Examine(g);
    if (!report.clean()) {
      Status bad = report.ToStatus().WithContext(
          "ExecuteResilient: input graph failed validation");
      validate_span.SetStatus(bad);
      return bad;
    }
  }

  if (policy.mem_budget_bytes > 0) {
    // A base-options cache hit skips the preprocessing recompute, so it
    // peaks lower; degraded variants key separately and may still recompute,
    // but by then the base attempt's memory has been released.
    const int64_t needed = EstimateRequestHostBytes(g, spec, base_options);
    if (needed > policy.mem_budget_bytes) {
      return ResourceExhaustedError(
          "graph needs ~" + std::to_string(needed) +
          " bytes of host memory, over the budget of " +
          std::to_string(policy.mem_budget_bytes));
    }
  }

  // Injections only land while the executor drives the pipeline: code that
  // never opted into recovery never sees an armed fail point.
  FailPointScope scope;

  ExecutionTrace local_trace;
  ExecutionTrace& trace = trace_out != nullptr ? *trace_out : local_trace;
  trace.attempts.clear();

  Status last_error;

  for (const FallbackStage& stage : chain) {
    // The cpu stage has no preprocessing to degrade.
    const int stage_variants = stage.is_cpu ? 1 : kLadderRungs;
    for (int variant = 0; variant < stage_variants; ++variant) {
      AttemptRecord record;
      record.stage = stage.name();
      record.variant = stage.is_cpu ? "base" : VariantName(variant);
      if (policy.on_stage) policy.on_stage(record.stage + "/" + record.variant);

      // An expired deadline ends the chain before burning another attempt.
      Status may_continue = ctx.CheckContinue("executor");
      if (!may_continue.ok()) {
        record.status = may_continue;
        trace.attempts.push_back(std::move(record));
        RecordAttempt(trace.attempts.back());
        return may_continue.WithContext("execution stopped after " +
                                        std::to_string(trace.attempts.size()) +
                                        " attempt(s)");
      }

      // One span per attempt: the fallback/degradation ladder is exactly
      // the structure a trace viewer should show. Pipeline stage spans
      // (direct/order/count) nest under it via the re-parented context.
      Span attempt_span = StartSpan(ctx, "attempt");
      attempt_span.SetAttr("stage", record.stage);
      attempt_span.SetAttr("variant", record.variant);
      const ExecContext attempt_ctx = WithSpan(ctx, attempt_span);

      Timer attempt_timer;
      StatusOr<RunResult> run = [&]() -> StatusOr<RunResult> {
        if (stage.is_cpu) {
          GPUTC_ASSIGN_OR_RETURN(const int64_t triangles,
                                 TryCountTrianglesForward(g, attempt_ctx));
          RunResult result;
          result.triangles = triangles;
          return result;
        }
        return RunTriangleCountWithContext(g, stage.algorithm, spec,
                                           DegradedOptions(base_options, variant),
                                           attempt_ctx);
      }();
      record.elapsed_ms = attempt_timer.ElapsedMillis();

      if (run.ok()) {
        record.model_ms = run->kernel_ms();
        attempt_span.SetAttr("model_ms", record.model_ms);
        if (policy.max_model_ms > 0.0 &&
            run->kernel_ms() > policy.max_model_ms) {
          // The count is correct but the modelled device would miss its
          // budget; treat as a failed attempt and keep degrading.
          record.status = ResourceExhaustedError(
              "modelled kernel time " + std::to_string(run->kernel_ms()) +
              " ms exceeds the ceiling of " +
              std::to_string(policy.max_model_ms) + " ms");
          attempt_span.SetStatus(record.status);
          last_error = record.status;
          trace.attempts.push_back(std::move(record));
          RecordAttempt(trace.attempts.back());
          continue;
        }
        record.status = OkStatus();
        attempt_span.SetStatus(record.status);
        ExecutionResult result;
        result.run = *std::move(run);
        result.stage = record.stage;
        result.variant = record.variant;
        trace.attempts.push_back(std::move(record));
        RecordAttempt(trace.attempts.back());
        return result;
      }

      record.status = run.status();
      attempt_span.SetStatus(record.status);
      const bool stop = IsStopError(run.status());
      last_error = run.status();
      trace.attempts.push_back(std::move(record));
      RecordAttempt(trace.attempts.back());
      if (stop) {
        return last_error.WithContext(
            "execution stopped after " +
            std::to_string(trace.attempts.size()) + " attempt(s)");
      }
    }
  }

  Status exhausted = ResourceExhaustedError(
      "all " + std::to_string(trace.attempts.size()) +
      " fallback attempt(s) failed; last error: " + last_error.ToString());
  return exhausted;
}

}  // namespace gputc
