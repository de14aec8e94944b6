#include "tc/counter.h"

#include <cctype>

#include "obs/trace.h"
#include "tc/cpu_counters.h"
#include "util/failpoint.h"

namespace gputc {

StatusOr<TcResult> SimTriangleCounter::TryCount(const DirectedGraph& g,
                                                const DeviceSpec& spec,
                                                const ExecContext& ctx) const {
  return TryCountPricedBy(g, ctx, [&](const ExecContext& tc_ctx) {
    return Price(g, spec, tc_ctx);
  });
}

std::string SimTriangleCounter::site() const {
  std::string site = "tc.";
  for (const char c : name()) {
    if (c == '-') break;
    site += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return site;
}

StatusOr<TcResult> SimTriangleCounter::TryCountPricedBy(
    const DirectedGraph& g, const ExecContext& ctx,
    const std::function<StatusOr<KernelStats>(const ExecContext&)>& price)
    const {
  const std::string entry = site();
  GPUTC_INJECT_FAULT(entry);
  Span span = StartSpan(ctx, entry);
  const ExecContext tc_ctx = WithSpan(ctx, span);
  TcResult result;
  GPUTC_ASSIGN_OR_RETURN(result.kernel, price(tc_ctx));
  GPUTC_ASSIGN_OR_RETURN(result.triangles,
                         TryCountTrianglesDirected(g, tc_ctx));
  span.SetAttr("triangles", result.triangles);
  span.SetAttr("blocks", result.kernel.num_blocks);
  return result;
}

}  // namespace gputc
