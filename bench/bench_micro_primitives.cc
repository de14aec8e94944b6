// Microbenchmarks (google-benchmark) of the preprocessing primitives: the
// wall-clock costs that make up the paper's "preprocessing time" bars.
// Benchmarks whose work runs on the host pool (util/parallel.h) time real
// time: the main thread's CPU clock does not see the pool's workers.

#include <benchmark/benchmark.h>

#include "core/preprocess.h"
#include "direction/direction.h"
#include "direction/peeling.h"
#include "graph/datasets.h"
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

void BM_ADirectionPeel(benchmark::State& state) {
  const Graph& g = Gowalla();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ADirectionPeel(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ADirectionPeel);

void BM_DegreeDirectionRank(benchmark::State& state) {
  const Graph& g = Gowalla();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DirectionRank(g, DirectionStrategy::kDegreeBased));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_DegreeDirectionRank);

void BM_AOrder(benchmark::State& state) {
  const DirectedGraph& d = GowallaDirected();
  const ResourceModel model =
      CalibratedResourceModel(DeviceSpec::TitanXpLike());
  const std::vector<EdgeCount> degs = d.OutDegrees();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AOrder(degs, model, AOrderOptions{static_cast<int>(state.range(0))}));
  }
  state.SetItemsProcessed(state.iterations() * d.num_vertices());
}
BENCHMARK(BM_AOrder)->Arg(64)->Arg(256)->Arg(1024);

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

void BM_ApplyPermutation(benchmark::State& state) {
  const DirectedGraph& d = GowallaDirected();
  const Permutation perm = RandomOrder(d.num_vertices(), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyPermutation(d, perm));
  }
}
BENCHMARK(BM_ApplyPermutation)->UseRealTime();

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
