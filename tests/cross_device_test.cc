#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "direction/direction.h"
#include "graph/datasets.h"
#include "graph/permutation.h"
#include "order/calibration.h"
#include "order/ordering.h"
#include "tc/cpu_counters.h"
#include "tc/registry.h"

namespace gputc {
namespace {

// The paper's usability claim: the preprocessing is calibrated per device
// and keeps helping when the device changes. These tests repeat the robust
// qualitative checks on a second simulated device.

class CrossDeviceTest : public ::testing::TestWithParam<DeviceSpec> {
 protected:
  Graph graph_ = LoadDataset("kron-logn18");
};

TEST_P(CrossDeviceTest, CountsStayExactEverywhere) {
  const DeviceSpec spec = GetParam();
  const int64_t expected = CountTrianglesEdgeIterator(graph_);
  for (TcAlgorithm algorithm : PaperAlgorithms()) {
    EXPECT_EQ(RunTriangleCount(graph_, algorithm, spec).triangles, expected)
        << ToString(algorithm);
  }
}

TEST_P(CrossDeviceTest, IdDirectionRemainsWorstOnBspKernels) {
  const DeviceSpec spec = GetParam();
  for (TcAlgorithm algorithm : {TcAlgorithm::kHu, TcAlgorithm::kBisson}) {
    const double id =
        MakeCounter(algorithm)
            ->Count(Orient(graph_, DirectionStrategy::kIdBased), spec)
            .kernel.cycles;
    const double adir =
        MakeCounter(algorithm)
            ->Count(Orient(graph_, DirectionStrategy::kADirection), spec)
            .kernel.cycles;
    EXPECT_LT(adir, id) << ToString(algorithm);
  }
}

TEST_P(CrossDeviceTest, DegreeOrderRemainsWorstOrdering) {
  const DeviceSpec spec = GetParam();
  if (spec.num_sms < 8) {
    // D-order's damage comes through straggler blocks across many SMs; a
    // 2-SM debug device serializes everything and the effect (correctly)
    // vanishes into noise.
    GTEST_SKIP() << "too few SMs for the load-imbalance channel";
  }
  const DirectedGraph d = Orient(graph_, DirectionStrategy::kDegreeBased);
  const ResourceModel model = CalibratedResourceModel(spec);
  auto kernel_cycles = [&](OrderingStrategy ord) {
    const Permutation perm = ComputeOrdering(
        graph_, d, ord, model, AOrderOptions{spec.threads_per_block()});
    return MakeCounter(TcAlgorithm::kHu)
        ->Count(ApplyPermutation(d, perm), spec)
        .kernel.cycles;
  };
  const double a_order = kernel_cycles(OrderingStrategy::kAOrder);
  const double d_order = kernel_cycles(OrderingStrategy::kDegree);
  EXPECT_LT(a_order, d_order);
}

TEST_P(CrossDeviceTest, CalibrationAdaptsToDevice) {
  const DeviceSpec spec = GetParam();
  const CalibrationResult r = CalibrateResourceModel(spec);
  EXPECT_GT(r.lambda, 0.0);
  EXPECT_FALSE(r.samples.empty());
  // p_c stays monotone nondecreasing on every device.
  for (size_t i = 1; i < r.samples.size(); ++i) {
    EXPECT_GE(r.samples[i].p_c, r.samples[i - 1].p_c - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Devices, CrossDeviceTest,
    ::testing::Values(DeviceSpec::TitanXpLike(), DeviceSpec::MidrangeLike(),
                      DeviceSpec::Tiny()),
    [](const ::testing::TestParamInfo<DeviceSpec>& info) {
      switch (info.index) {
        case 0:
          return std::string("TitanXpLike");
        case 1:
          return std::string("MidrangeLike");
        default:
          return std::string("Tiny");
      }
    });

}  // namespace
}  // namespace gputc
