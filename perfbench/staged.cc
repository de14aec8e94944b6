// The traced run. Its pipeline section calls the layers' public functions
// one at a time, timing each from outside, and checks that the staged path
// reproduces ExecuteResilient's base attempt exactly; its service section
// times the service layer around BatchService and the WAL.

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "direction/cost_model.h"
#include "direction/direction.h"
#include "graph/io.h"
#include "graph/permutation.h"
#include "graph/validate.h"
#include "order/calibration.h"
#include "order/ordering.h"
#include "order/resource_model.h"
#include "perfbench.h"
#include "tc/fox.h"

namespace perfbench {
namespace {

using gputc::DirectedGraph;
using gputc::TcAlgorithm;

/// Wall and thread-CPU milliseconds of each layer of one staged request.
struct LayerTimes {
  double load_ms = 0, load_cpu_ms = 0;
  double validate_ms = 0, validate_cpu_ms = 0;
  double calibrate_ms = 0, calibrate_cpu_ms = 0;
  double direction_ms = 0, direction_cpu_ms = 0;
  double order_ms = 0, order_cpu_ms = 0;
  double count_ms = 0, count_cpu_ms = 0;

  double Sum() const {
    return load_ms + validate_ms + calibrate_ms + direction_ms + order_ms +
           count_ms;
  }
};

class Stopwatch {
 public:
  Stopwatch() : wall_(NowMs()), cpu_(ThreadCpuMs()) {}
  /// Writes the time since the previous lap and starts the next one.
  void Lap(double* wall_ms, double* cpu_ms) {
    const double wall = NowMs();
    const double cpu = ThreadCpuMs();
    *wall_ms = wall - wall_;
    *cpu_ms = cpu - cpu_;
    wall_ = wall;
    cpu_ = cpu;
  }

 private:
  double wall_;
  double cpu_;
};

struct StagedOutput {
  int64_t triangles = 0;
  gputc::KernelStats kernel;
  double cost_eq1 = 0.0;
  double cost_eq3 = 0.0;
  int64_t arcs = 0;
};

/// ExecuteResilient's base attempt, layer by layer: the same calls with the
/// same bucket size, calibration and seed that TryPreprocess and
/// RunTriangleCountWithContext resolve, without spans, fail points or the
/// metrics registry.
gputc::StatusOr<StagedOutput> RunStaged(const std::string& path,
                                        TcAlgorithm algorithm,
                                        const gputc::DeviceSpec& spec,
                                        LayerTimes* t) {
  const gputc::PreprocessOptions options;
  const gputc::ExecContext ctx;
  StagedOutput out;
  Stopwatch watch;

  GPUTC_ASSIGN_OR_RETURN(const gputc::Graph g, gputc::LoadBinary(path));
  watch.Lap(&t->load_ms, &t->load_cpu_ms);

  const gputc::ValidationReport report = gputc::GraphDoctor().Examine(g);
  watch.Lap(&t->validate_ms, &t->validate_cpu_ms);
  if (!report.clean()) return report.ToStatus();

  gputc::ResourceModel model = gputc::ResourceModel::Default();
  if (options.calibrate) {
    GPUTC_ASSIGN_OR_RETURN(model, gputc::TryCalibratedResourceModel(spec));
  }
  watch.Lap(&t->calibrate_ms, &t->calibrate_cpu_ms);

  const std::vector<gputc::VertexId> rank =
      gputc::DirectionRank(g, options.direction, options.seed, &ctx);
  const DirectedGraph directed = DirectedGraph::FromRank(g, rank);
  out.cost_eq1 = gputc::DirectionCost(directed);
  watch.Lap(&t->direction_ms, &t->direction_cpu_ms);

  // Fox reorders arcs, not vertices: its vertex pass keeps the input ids and
  // A-order is applied to the arc sequence instead.
  const bool edge_order =
      algorithm == TcAlgorithm::kFox &&
      options.ordering == gputc::OrderingStrategy::kAOrder;
  gputc::AOrderOptions aorder = options.aorder;
  if (aorder.bucket_size <= 0) aorder.bucket_size = spec.threads_per_block();
  aorder.exec = &ctx;
  const gputc::Permutation perm = gputc::ComputeOrdering(
      g, directed,
      edge_order ? gputc::OrderingStrategy::kOriginal : options.ordering,
      model, aorder, options.seed);
  const DirectedGraph ordered = gputc::ApplyPermutation(directed, perm);
  out.cost_eq3 = gputc::OrderingImbalanceCost(directed.OutDegrees(), perm,
                                              aorder.bucket_size, model);
  const gputc::FoxCounter fox;
  std::vector<int64_t> arc_order;
  if (edge_order) arc_order = fox.AOrderedEdgeOrder(ordered, model, spec);
  watch.Lap(&t->order_ms, &t->order_cpu_ms);

  gputc::StatusOr<gputc::TcResult> counted =
      edge_order ? fox.TryCountWithEdgeOrder(ordered, spec, arc_order, ctx)
                 : gputc::MakeCounter(algorithm)->TryCount(ordered, spec, ctx);
  watch.Lap(&t->count_ms, &t->count_cpu_ms);
  if (!counted.ok()) return counted.status();
  out.triangles = counted->triangles;
  out.kernel = counted->kernel;
  out.arcs = ordered.num_edges();
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Alternates staged (traced) and ExecuteResilient (untraced) requests over
/// the fixed request list, at least two passes and `budget_s` seconds.
void RunPipelineSection(const Corpus& corpus, double budget_s,
                        Result* result) {
  const gputc::DeviceSpec spec = gputc::DeviceSpec::TitanXpLike();
  const size_t list = corpus.requests.size();
  std::vector<LayerTimes> layers;
  std::vector<double> staged_pass_wall, staged_pass_layers, untraced_pass_wall;
  double load_bytes = 0.0, load_ms = 0.0, arcs = 0.0, count_ms = 0.0;
  double attempts = 0.0, untraced = 0.0;
  double sim_ms = 0.0, sim_ops = 0.0, sim_txn = 0.0, sim_util = 0.0;
  double eq1 = 0.0, eq3 = 0.0;

  const double t0 = NowMs();
  for (int pass = 0;; ++pass) {
    double staged_wall = 0.0, staged_layers = 0.0, untraced_wall = 0.0;
    for (size_t r = 0; r < list; ++r) {
      const RequestSpec& ref = corpus.requests[r];
      const InputGraph& input = corpus.inputs[static_cast<size_t>(ref.input)];
      const std::string what = input.name + "/" + gputc::ToString(ref.algorithm);
      // Alternate which path goes first, so drift favours neither.
      for (int half = 0; half < 2; ++half) {
        if ((half == 0) != (pass % 2 == 0)) {
          const DirectOutcome direct =
              RunDirectRequest(corpus, static_cast<int>(r));
          Tally(direct.verdict, result);
          untraced_wall += direct.wall_ms;
          attempts += direct.attempts;
          untraced += 1.0;
          if (!SameBits(direct.run.preprocess.direction_cost, ref.cost_eq1) ||
              !SameBits(direct.run.preprocess.ordering_cost, ref.cost_eq3)) {
            result->Fail("ExecuteResilient Eq. 1/Eq. 3 cost drifted: " + what);
          }
          continue;
        }
        LayerTimes t;
        const double start = NowMs();
        const gputc::StatusOr<StagedOutput> staged =
            RunStaged(input.path, ref.algorithm, spec, &t);
        staged_wall += NowMs() - start;
        staged_layers += t.Sum();
        layers.push_back(t);
        if (!staged.ok()) {
          result->Fail("staged path failed: " + what + ": " +
                       staged.status().ToString());
          continue;
        }
        if (staged->triangles != input.triangles ||
            !SameKernel(staged->kernel, ref.kernel) ||
            !SameBits(staged->cost_eq1, ref.cost_eq1) ||
            !SameBits(staged->cost_eq3, ref.cost_eq3)) {
          result->Fail("staged-path equivalence: " + what);
        }
        load_bytes += static_cast<double>(std::filesystem::file_size(input.path));
        load_ms += t.load_ms;
        arcs += static_cast<double>(staged->arcs);
        count_ms += t.count_ms;
        if (pass == 0) {
          sim_ms += staged->kernel.millis;
          sim_ops += staged->kernel.total_ops;
          sim_txn += staged->kernel.total_transactions;
          sim_util += staged->kernel.sm_utilization;
          eq1 += staged->cost_eq1;
          eq3 += staged->cost_eq3;
        }
      }
    }
    staged_pass_wall.push_back(staged_wall);
    staged_pass_layers.push_back(staged_layers);
    untraced_pass_wall.push_back(untraced_wall);
    if (pass >= 1 && NowMs() - t0 >= budget_s * 1e3) break;
  }

  const auto median_of = [&layers](double LayerTimes::*field) {
    std::vector<double> values;
    for (const LayerTimes& t : layers) values.push_back(t.*field);
    return Median(values);
  };
  result->Add("graph.load_ms", median_of(&LayerTimes::load_ms), "ms");
  result->Add("graph.load_cpu_ms", median_of(&LayerTimes::load_cpu_ms), "ms");
  result->Add("graph.load_mb_per_s", load_bytes / (1 << 20) / (load_ms / 1e3),
              "MB/s");
  result->Add("graph.validate_ms", median_of(&LayerTimes::validate_ms), "ms");
  result->Add("graph.validate_cpu_ms", median_of(&LayerTimes::validate_cpu_ms),
              "ms");
  result->Add("direction.ms", median_of(&LayerTimes::direction_ms), "ms");
  result->Add("direction.cpu_ms", median_of(&LayerTimes::direction_cpu_ms),
              "ms");
  result->Add("direction.cost_eq1", eq1, "cost");
  result->Add("order.calibrate_ms", median_of(&LayerTimes::calibrate_ms), "ms");
  result->Add("order.ms", median_of(&LayerTimes::order_ms), "ms");
  result->Add("order.cpu_ms", median_of(&LayerTimes::order_cpu_ms), "ms");
  result->Add("order.cost_eq3", eq3, "cost");
  result->Add("tc.count_ms", median_of(&LayerTimes::count_ms), "ms");
  result->Add("tc.count_cpu_ms", median_of(&LayerTimes::count_cpu_ms), "ms");
  result->Add("tc.arcs_per_s", arcs / (count_ms / 1e3), "arcs/s");
  result->Add("sim.kernel_ms", sim_ms, "ms");
  result->Add("sim.total_ops", sim_ops, "ops");
  result->Add("sim.total_transactions", sim_txn, "txn");
  result->Add("sim.sm_utilization", sim_util / static_cast<double>(list),
              "ratio");
  result->Add("core.attempts_per_request", attempts / untraced, "count");
  const double untraced_median = Median(untraced_pass_wall);
  result->Add("trace.coverage", Median(staged_pass_layers) / untraced_median,
              "ratio");
  result->Add("trace.overhead_pct",
              (Median(staged_pass_wall) - untraced_median) / untraced_median *
                  100.0,
              "%");
  result->record.push_back(
      {"staged_requests", std::to_string(layers.size())});
}

}  // namespace

void RunTraced(const Corpus& corpus, const RunOptions& options,
               Result* result) {
  RunPipelineSection(corpus, options.seconds * 0.5, result);
  ServiceSection section;
  section.in_flight = FindWorkload(corpus.workload)->service ? 4 : 1;
  section.window_seconds = std::max(1.0, options.seconds * 0.3);
  section.min_warmup_s = 0.5;
  section.max_warmup_s = 2.0;
  RunServiceSection(corpus, options, section, /*per_layer=*/true, result);
}

}  // namespace perfbench
