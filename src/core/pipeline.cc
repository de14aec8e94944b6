#include "core/pipeline.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/profiler.h"
#include "tc/fox.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gputc {
namespace {

void RecordCountStage(TcAlgorithm algorithm, double ms) {
  MetricsRegistry::Global()
      .GetHistogram("gputc_stage_duration_ms",
                    "Host wall-clock of one pipeline stage in milliseconds",
                    0.0, 1000.0, 20, {{"stage", "count"}})
      .Observe(ms);
  MetricsRegistry::Global()
      .GetCounter("gputc_counts_total", "Completed counting-kernel runs",
                  {{"algorithm", ToString(algorithm)}})
      .Increment();
}

}  // namespace

RunResult RunTriangleCount(const Graph& g, TcAlgorithm algorithm,
                           const DeviceSpec& spec,
                           const PreprocessOptions& options) {
  StatusOr<RunResult> result =
      RunTriangleCountWithContext(g, algorithm, spec, options, ExecContext{});
  GPUTC_CHECK(result.ok()) << "RunTriangleCount failed: "
                           << result.status().ToString();
  return *std::move(result);
}

StatusOr<RunResult> RunTriangleCountWithContext(const Graph& g,
                                                TcAlgorithm algorithm,
                                                const DeviceSpec& spec,
                                                const PreprocessOptions& options,
                                                const ExecContext& ctx) {
  RunResult result;
  // Fox reorders arcs, not vertices (Section 6.4): under A-order its
  // preprocessing keeps vertex ids and builds the edge order the kernel runs.
  const bool edge_order =
      algorithm == TcAlgorithm::kFox &&
      (options.ordering == OrderingStrategy::kAOrder ||
       options.ordering == OrderingStrategy::kAOrderEdges);
  PreprocessOptions prep_options = options;
  if (edge_order) prep_options.ordering = OrderingStrategy::kAOrderEdges;
  GPUTC_ASSIGN_OR_RETURN(result.preprocess,
                         TryPreprocess(g, spec, prep_options, ctx));
  Timer count_timer;
  Span count_span = StartSpan(ctx, "count");
  count_span.SetAttr("algorithm", ToString(algorithm));
  const ExecContext count_ctx = WithSpan(ctx, count_span);
  const DirectedGraph& counted = result.preprocess.graph;
  GPUTC_ASSIGN_OR_RETURN(
      const TcResult tc,
      edge_order ? FoxCounter().TryCountWithBinnedOrder(
                       counted, spec, result.preprocess.edge_order, count_ctx)
                 : MakeCounter(algorithm)->TryCount(counted, spec, count_ctx));
  result.triangles = tc.triangles;
  result.kernel = tc.kernel;
  count_span.SetAttr("triangles", result.triangles);
  AnnotateSpanWithKernel(count_span, result.kernel);
  count_span.Finish();
  RecordCountStage(algorithm, count_timer.ElapsedMillis());
  return result;
}

StatusOr<RunResult> TryRunTriangleCount(const Graph& g, TcAlgorithm algorithm,
                                        const DeviceSpec& spec,
                                        const PreprocessOptions& options) {
  const ValidationReport report = GraphDoctor().Examine(g);
  if (!report.clean()) {
    return report.ToStatus().WithContext(
        "TryRunTriangleCount: input graph failed validation");
  }
  return RunTriangleCountWithContext(g, algorithm, spec, options,
                                     ExecContext{});
}

int64_t CountTriangles(const Graph& g) {
  StatusOr<RunResult> result =
      TryRunTriangleCount(g, TcAlgorithm::kHu, DeviceSpec::TitanXpLike());
  GPUTC_CHECK(result.ok()) << "CountTriangles failed: "
                           << result.status().ToString();
  return result->triangles;
}

}  // namespace gputc
