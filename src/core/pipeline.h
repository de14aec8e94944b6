#ifndef GPUTC_CORE_PIPELINE_H_
#define GPUTC_CORE_PIPELINE_H_

#include <cstdint>
#include <string>

#include "core/preprocess.h"
#include "graph/graph.h"
#include "graph/validate.h"
#include "sim/device.h"
#include "tc/counter.h"
#include "tc/registry.h"
#include "util/status.h"

namespace gputc {

/// End-to-end result: preprocessing diagnostics plus the simulated kernel
/// run — the two components every figure in the evaluation splits apart.
struct RunResult {
  int64_t triangles = 0;
  KernelStats kernel;
  PreprocessResult preprocess;

  /// Paper's "kernel time": the modelled GPU time in milliseconds.
  double kernel_ms() const { return kernel.millis; }
  /// Paper's "total time": kernel plus host preprocessing.
  double total_ms() const { return kernel.millis + preprocess.total_ms; }
};

/// Preprocesses `g` per `options` and counts triangles with `algorithm` on
/// the device `spec`. For Fox (edge reorder unit), an ordering of kAOrder is
/// applied to *edges* (FoxCounter::AOrderedEdgeOrder) instead of relabeling
/// vertices, matching Section 6.4.
RunResult RunTriangleCount(const Graph& g, TcAlgorithm algorithm,
                           const DeviceSpec& spec,
                           const PreprocessOptions& options = {});

/// The pipeline engine under an execution envelope: preprocessing and the
/// counter both poll `ctx` and pass every fail-point site, so deadlines,
/// cancellations, injected faults and count-limit overflows surface as
/// Status. Does NOT validate `g` — the executor (and TryRunTriangleCount)
/// validate once up front; calling this directly with an untrusted graph is
/// undefined exactly like RunTriangleCount.
StatusOr<RunResult> RunTriangleCountWithContext(
    const Graph& g, TcAlgorithm algorithm, const DeviceSpec& spec,
    const PreprocessOptions& options, const ExecContext& ctx);

/// Validated front door for untrusted graphs: runs GraphDoctor over `g`
/// first (CSR integrity, self loops, symmetry, triangle-count overflow risk)
/// and refuses with a context-bearing Status instead of feeding a damaged
/// graph to the kernels. Graphs built by this library's loaders/generators
/// always pass; hand-assembled CSRs may not.
StatusOr<RunResult> TryRunTriangleCount(const Graph& g, TcAlgorithm algorithm,
                                        const DeviceSpec& spec,
                                        const PreprocessOptions& options = {});

/// Convenience facade: preprocess with the paper's defaults (A-direction +
/// A-order) and count with Hu's algorithm; returns just the triangle count.
/// Routes through the validated front door: a graph that fails GraphDoctor
/// (hand-assembled CSRs with broken offsets, self loops, asymmetry, ...)
/// fatally aborts with the validation report instead of corrupting the
/// kernels. Callers that need to recover use TryRunTriangleCount.
int64_t CountTriangles(const Graph& g);

}  // namespace gputc

#endif  // GPUTC_CORE_PIPELINE_H_
