#ifndef GPUTC_UTIL_STATS_H_
#define GPUTC_UTIL_STATS_H_

#include <cstdint>
#include <vector>

namespace gputc {

/// Summary statistics of a sample.
struct Summary {
  int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  // Population standard deviation.
  double sum = 0.0;
};

/// Computes summary statistics of `values`. Returns a zeroed Summary for an
/// empty input.
Summary Summarize(const std::vector<double>& values);

/// Result of an ordinary least squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0, 1]; 1 means a perfect fit.
  double r_squared = 0.0;
};

/// Fits a line through (xs[i], ys[i]) by least squares. The inputs must have
/// equal, nonzero size. Degenerate inputs (constant x) yield slope 0.
LinearFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys);

/// Pearson correlation coefficient of two equally sized samples; 0 on
/// degenerate input.
double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys);

/// The `pct`-th percentile (0..100) by linear interpolation between order
/// statistics; 0 for an empty sample. Takes a copy because it sorts.
double Percentile(std::vector<double> values, double pct);

}  // namespace gputc

#endif  // GPUTC_UTIL_STATS_H_
