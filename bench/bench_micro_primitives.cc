// Microbenchmarks (google-benchmark) of the preprocessing primitives: the
// wall-clock costs that make up the paper's "preprocessing time" bars.
// Benchmarks whose work runs on the host pool (util/parallel.h) time real
// time: the main thread's CPU clock does not see the pool's workers.

#include <benchmark/benchmark.h>

#include "core/preprocess.h"
#include "direction/direction.h"
#include "direction/peeling.h"
#include "graph/datasets.h"
#include "graph/directed_graph.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "order/aorder.h"
#include "order/calibration.h"
#include "order/classic_orders.h"
#include "tc/cpu_counters.h"

namespace gputc {
namespace {

const Graph& Gowalla() {
  static const Graph* const kGraph = new Graph(LoadDataset("gowalla"));
  return *kGraph;
}

const DirectedGraph& GowallaDirected() {
  static const DirectedGraph* const kGraph = new DirectedGraph(
      Orient(Gowalla(), DirectionStrategy::kDegreeBased));
  return *kGraph;
}

// The shape of perfbench's sparse-count input: Watts–Strogatz, 2^20
// vertices, k = 8, beta = 0.1, under A-direction. Gowalla's 30k vertices
// are too few for the preprocessing loops' per-vertex costs to show.
const Graph& WattsStrogatz() {
  static const Graph* const kGraph =
      new Graph(GenerateWattsStrogatz(VertexId{1} << 20, 8, 0.1, 1));
  return *kGraph;
}

const DirectedGraph& WattsStrogatzDirected() {
  static const DirectedGraph* const kGraph = new DirectedGraph(
      Orient(WattsStrogatz(), DirectionStrategy::kADirection));
  return *kGraph;
}

void BM_ADirectionPeel(benchmark::State& state, const Graph& (*graph)()) {
  const Graph& g = graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ADirectionPeel(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK_CAPTURE(BM_ADirectionPeel, gowalla, &Gowalla);
BENCHMARK_CAPTURE(BM_ADirectionPeel, ws_2e20_k8, &WattsStrogatz);

void BM_DegreeDirectionRank(benchmark::State& state) {
  const Graph& g = Gowalla();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DirectionRank(g, DirectionStrategy::kDegreeBased));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_DegreeDirectionRank);

void BM_AOrder(benchmark::State& state, const DirectedGraph& (*graph)()) {
  const DirectedGraph& d = graph();
  const ResourceModel model =
      CalibratedResourceModel(DeviceSpec::TitanXpLike());
  const std::vector<EdgeCount> degs = d.OutDegrees();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AOrder(degs, model, AOrderOptions{static_cast<int>(state.range(0))}));
  }
  state.SetItemsProcessed(state.iterations() * d.num_vertices());
}
BENCHMARK_CAPTURE(BM_AOrder, gowalla, &GowallaDirected)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_AOrder, ws_2e20_k8, &WattsStrogatzDirected)->Arg(256);

void BM_ClassicOrder_Dfs(benchmark::State& state) {
  const Graph& g = Gowalla();
  for (auto _ : state) benchmark::DoNotOptimize(DfsOrder(g));
}
BENCHMARK(BM_ClassicOrder_Dfs);

void BM_ClassicOrder_SlashBurn(benchmark::State& state) {
  const Graph& g = Gowalla();
  for (auto _ : state) benchmark::DoNotOptimize(SlashBurnOrder(g));
}
BENCHMARK(BM_ClassicOrder_SlashBurn);

void BM_ClassicOrder_Gro(benchmark::State& state) {
  const Graph& g = Gowalla();
  for (auto _ : state) benchmark::DoNotOptimize(GroOrder(g));
}
BENCHMARK(BM_ClassicOrder_Gro);

// A request's one-pass build of its counted CSR: the out-degrees under the
// A-direction rank, then the oriented graph relabeled by the A-order
// permutation those degrees give, straight from the input.
void BM_OneBuild(benchmark::State& state, const Graph& (*graph)()) {
  const Graph& g = graph();
  const std::vector<VertexId> rank =
      DirectionRank(g, DirectionStrategy::kADirection);
  const Permutation perm =
      AOrder(RankOutDegrees(g, rank),
             CalibratedResourceModel(DeviceSpec::TitanXpLike()))
          .perm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DirectedGraph::FromRankAndPermutation(
        g, rank, RankOutDegrees(g, rank), perm));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK_CAPTURE(BM_OneBuild, gowalla, &Gowalla)->UseRealTime();
BENCHMARK_CAPTURE(BM_OneBuild, ws_2e20_k8, &WattsStrogatz)->UseRealTime();

void BM_CpuForwardCount(benchmark::State& state) {
  const Graph& g = Gowalla();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTrianglesForward(g));
  }
}
BENCHMARK(BM_CpuForwardCount)->UseRealTime();

void BM_FullPreprocess(benchmark::State& state) {
  const Graph& g = Gowalla();
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Preprocess(g, spec));
  }
}
BENCHMARK(BM_FullPreprocess)->UseRealTime();

}  // namespace
}  // namespace gputc

BENCHMARK_MAIN();
