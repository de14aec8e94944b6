#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace gputc {

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  s.count = static_cast<int64_t>(values.size());
  s.min = values[0];
  s.max = values[0];
  for (double v : values) {
    s.sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = s.sum / static_cast<double>(s.count);
  double var = 0.0;
  for (double v : values) {
    const double d = v - s.mean;
    var += d * d;
  }
  s.stddev = std::sqrt(var / static_cast<double>(s.count));
  return s;
}

LinearFit FitLine(const std::vector<double>& xs,
                  const std::vector<double>& ys) {
  GPUTC_CHECK_EQ(xs.size(), ys.size());
  GPUTC_CHECK(!xs.empty());
  LinearFit fit;
  const double n = static_cast<double>(xs.size());
  double sx = 0.0, sy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) {
    fit.intercept = my;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  if (syy > 0.0) {
    double ss_res = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      const double r = ys[i] - (fit.slope * xs[i] + fit.intercept);
      ss_res += r * r;
    }
    fit.r_squared = 1.0 - ss_res / syy;
  } else {
    fit.r_squared = 1.0;
  }
  return fit;
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.empty()) return 0.0;
  const Summary sx = Summarize(xs);
  const Summary sy = Summarize(ys);
  if (sx.stddev == 0.0 || sy.stddev == 0.0) return 0.0;
  double cov = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    cov += (xs[i] - sx.mean) * (ys[i] - sy.mean);
  }
  cov /= static_cast<double>(xs.size());
  return cov / (sx.stddev * sy.stddev);
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::clamp(pct, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace gputc
