#include "core/preprocess.h"

#include <utility>
#include <vector>

#include "core/prep_cache.h"
#include "direction/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "order/calibration.h"
#include "tc/fox.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gputc {
namespace {

/// Per-stage host-time histogram, shared with pipeline.cc's count stage via
/// the stage label — the Prometheus view of the paper's load→...→count
/// breakdown. Range covers microsecond-fast test graphs up to second-scale
/// datasets; slower runs land in the +Inf bucket.
void RecordStageMillis(const char* stage, double ms) {
  MetricsRegistry::Global()
      .GetHistogram("gputc_stage_duration_ms",
                    "Host wall-clock of one pipeline stage in milliseconds",
                    0.0, 1000.0, 20, {{"stage", stage}})
      .Observe(ms);
}

}  // namespace

PreprocessResult Preprocess(const Graph& g, const DeviceSpec& spec,
                            const PreprocessOptions& options) {
  StatusOr<PreprocessResult> result =
      TryPreprocess(g, spec, options, ExecContext{});
  GPUTC_CHECK(result.ok()) << "Preprocess failed: "
                           << result.status().ToString();
  return *std::move(result);
}

namespace {

StatusOr<ResourceModel> ResolveModel(const DeviceSpec& spec,
                                     const PreprocessOptions& options) {
  if (options.calibrate) return TryCalibratedResourceModel(spec);
  return ResourceModel::Default();
}

/// The fused (uncached) pipeline body, shared by the direct path and the
/// cache's fill function.
StatusOr<PreprocessResult> PreprocessUncached(const Graph& g,
                                              const DeviceSpec& spec,
                                              const PreprocessOptions& options,
                                              const ExecContext& ctx) {
  GPUTC_ASSIGN_OR_RETURN(const ResourceModel model,
                         ResolveModel(spec, options));
  PreprocessResult result;
  result.lambda = model.lambda();

  // The oriented graph is never built: its out-degrees, counted from the
  // rank, feed Eq. 1, the ordering and Eq. 3, and the counted graph is built
  // once from the input, the rank and the permutation.
  Timer direction_timer;
  std::vector<VertexId> rank;
  std::vector<EdgeCount> out_degrees;
  {
    Span direct_span = StartSpan(ctx, "direct");
    direct_span.SetAttr("strategy", ToString(options.direction));
    const ExecContext direct_ctx = WithSpan(ctx, direct_span);
    rank = DirectionRank(g, options.direction, options.seed, &direct_ctx);
    out_degrees = RankOutDegrees(g, rank);
    result.direction_ms = direction_timer.ElapsedMillis();
    result.direction_cost =
        DirectionCostFromOutDegrees(out_degrees, g.num_edges());
    direct_span.SetAttr("cost_eq1", result.direction_cost);
    direct_span.SetAttr("ms", result.direction_ms);
  }
  RecordStageMillis("direct", result.direction_ms);

  {
    Span order_span = StartSpan(ctx, "order");
    order_span.SetAttr("strategy", ToString(options.ordering));
    AOrderOptions aorder = options.aorder;
    if (aorder.bucket_size <= 0) aorder.bucket_size = spec.threads_per_block();
    const ExecContext order_ctx = WithSpan(ctx, order_span);
    aorder.exec = &order_ctx;
    Timer ordering_timer;
    result.vertex_perm = ComputeOrdering(g, out_degrees, options.ordering,
                                         model, aorder, options.seed);
    // A-order packing polls ctx and returns a valid-but-unoptimized
    // permutation when it aborts; surface the stop instead of using it.
    GPUTC_RETURN_IF_ERROR(ctx.CheckContinue("preprocess.ordering"));
    result.ordering_ms = ordering_timer.ElapsedMillis();
    // Eq. 3 goes before the build, which consumes the out-degrees; like
    // Eq. 1, it stays out of the stage's ms.
    result.ordering_cost = OrderingImbalanceCost(
        out_degrees, result.vertex_perm, aorder.bucket_size, model);
    {
      Span build_span = StartSpan(order_ctx, "csr.build");
      Timer build_timer;
      result.graph = DirectedGraph::FromRankAndPermutation(
          g, rank, std::move(out_degrees), result.vertex_perm);
      rank = std::vector<VertexId>();  // Spent: release it before Fox's bins.
      result.ordering_ms += build_timer.ElapsedMillis();
      const DirectedGraph& built = result.graph;
      build_span.SetAttr("arcs", built.num_edges());
      build_span.SetAttr(
          "bytes", static_cast<int64_t>(
                       built.offsets().size() * sizeof(EdgeCount) +
                       built.adjacency().size() * sizeof(VertexId)));
    }
    if (options.ordering == OrderingStrategy::kAOrderEdges) {
      // Fox reorders arcs, not vertices (Section 6.4): A-order packs each of
      // its work bins of the counted CSR.
      Timer edge_timer;
      GPUTC_ASSIGN_OR_RETURN(result.edge_order,
                             FoxCounter().TryAOrderedEdgeOrder(
                                 result.graph, model, spec, order_ctx));
      result.ordering_ms += edge_timer.ElapsedMillis();
    }
    order_span.SetAttr("cost_eq3", result.ordering_cost);
    order_span.SetAttr("ms", result.ordering_ms);
  }
  RecordStageMillis("order", result.ordering_ms);
  result.total_ms = result.direction_ms + result.ordering_ms;
  return result;
}

}  // namespace

StatusOr<PreprocessResult> TryPreprocess(const Graph& g,
                                         const DeviceSpec& spec,
                                         const PreprocessOptions& options,
                                         const ExecContext& ctx) {
  GPUTC_INJECT_FAULT("preprocess");
  GPUTC_RETURN_IF_ERROR(ctx.CheckContinue("preprocess"));

  if (options.prep_cache != nullptr) {
    const PrepCacheKey key = PrepFingerprint(g, spec, options);
    GPUTC_ASSIGN_OR_RETURN(
        const std::shared_ptr<const PrepArtifact> artifact,
        options.prep_cache->GetOrCompute(key, ctx, [&]() {
          return ComputePrepArtifact(g, spec, options, ctx);
        }));
    return MaterializePreprocess(*artifact, ctx);
  }
  return PreprocessUncached(g, spec, options, ctx);
}

StatusOr<PrepArtifact> ComputePrepArtifact(const Graph& g,
                                           const DeviceSpec& spec,
                                           const PreprocessOptions& options,
                                           const ExecContext& ctx) {
  GPUTC_ASSIGN_OR_RETURN(PreprocessResult result,
                         PreprocessUncached(g, spec, options, ctx));
  PrepArtifact artifact;
  artifact.offsets = result.graph.offsets();
  artifact.adj = result.graph.adjacency();
  artifact.vertex_perm = std::move(result.vertex_perm);
  artifact.edge_order = std::move(result.edge_order);
  artifact.lambda = result.lambda;
  artifact.direction_cost = result.direction_cost;
  artifact.ordering_cost = result.ordering_cost;
  return artifact;
}

StatusOr<PreprocessResult> MaterializePreprocess(const PrepArtifact& artifact,
                                                 const ExecContext& ctx) {
  GPUTC_RETURN_IF_ERROR(ctx.CheckContinue("prep.cache.materialize"));
  Timer timer;
  PreprocessResult result;
  result.graph = DirectedGraph::FromParts(artifact.offsets, artifact.adj);
  result.vertex_perm = artifact.vertex_perm;
  result.edge_order = artifact.edge_order;
  result.lambda = artifact.lambda;
  result.direction_cost = artifact.direction_cost;
  result.ordering_cost = artifact.ordering_cost;
  // A hit's "preprocessing time" is the rebuild, which is the whole point of
  // the cache; attribute it to the direction slot so total_ms stays honest.
  result.direction_ms = timer.ElapsedMillis();
  result.total_ms = result.direction_ms;
  return result;
}

}  // namespace gputc
