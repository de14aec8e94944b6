// Ablation (beyond the paper): sensitivity of A-order to the bucket size k
// (vertices per block). DESIGN.md calls out k = threads_per_block as the
// default; this sweep shows the Eq. 3 objective and the simulated kernel
// time across k.

#include <iostream>

#include "bench_util.h"
#include "core/preprocess.h"
#include "direction/direction.h"
#include "graph/permutation.h"
#include "order/calibration.h"
#include "tc/hu.h"

namespace gputc {
namespace bench {
namespace {

void Main() {
  PrintHeader("Ablation: bucket size",
              "A-order bucket size sweep on Hu's algorithm (gowalla, "
              "D-direction)");
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const ResourceModel model = CalibratedResourceModel(spec);
  const Graph g = LoadDataset("gowalla");
  const DirectedGraph d = Orient(g, DirectionStrategy::kDegreeBased);
  const std::vector<EdgeCount> degs = d.OutDegrees();

  TablePrinter table({"bucket size", "Eq.3 cost", "Hu kernel ms"});
  for (int bucket : {32, 64, 128, 256, 512, 1024, 4096}) {
    const AOrderResult order = AOrder(degs, model, AOrderOptions{bucket});
    const DirectedGraph relabeled = ApplyPermutation(d, order.perm);
    // Blocks still own threads_per_block-vertex ranges; the sweep varies
    // only the granularity A-order packs at.
    const double ms = HuCounter().Count(relabeled, spec).kernel.millis;
    const double cost =
        OrderingImbalanceCost(degs, order.perm, bucket, model);
    table.AddRow({FmtCount(bucket), Fmt(cost, 0), Fmt(ms, 3)});
  }
  table.Print(std::cout);
  std::cout << "\nReading: packing at the device's block granularity "
               "(bucket = threads_per_block = "
            << spec.threads_per_block()
            << ") should be at or near the minimum kernel time; much larger "
               "buckets stop matching block work sets.\n";
}

}  // namespace
}  // namespace bench
}  // namespace gputc

int main() { gputc::bench::Main(); }
