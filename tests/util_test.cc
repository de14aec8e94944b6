#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/flags.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"

namespace gputc {
namespace {

TEST(SummarizeTest, EmptyInput) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(SummarizeTest, BasicStatistics) {
  const Summary s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.sum, 10.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(FitLineTest, PerfectLine) {
  const LinearFit fit = FitLine({1.0, 2.0, 3.0}, {3.0, 5.0, 7.0});
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLineTest, ConstantXFallsBackToMean) {
  const LinearFit fit = FitLine({2.0, 2.0, 2.0}, {1.0, 3.0, 5.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 3.0);
}

TEST(FitLineTest, NoisyLineHasReasonableR2) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(PearsonTest, PerfectCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(PearsonTest, DegenerateInputIsZero) {
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {2, 4, 6}), 0.0);
  EXPECT_EQ(PearsonCorrelation({}, {}), 0.0);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next64() != b.Next64()) ++differing;
  }
  EXPECT_GT(differing, 12);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(FlagParserTest, ParsesEqualsAndSpaceSyntax) {
  const char* argv[] = {"prog", "--nodes=100", "--name", "gowalla", "pos1",
                        "--flag"};
  FlagParser flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("nodes", 0), 100);
  EXPECT_EQ(flags.GetString("name", ""), "gowalla");
  EXPECT_TRUE(flags.GetBool("flag", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_EQ(flags.GetInt("absent", 7), 7);
}

TEST(FlagParserTest, DoubleParsing) {
  const char* argv[] = {"prog", "--gamma=2.5"};
  FlagParser flags(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("gamma", 0.0), 2.5);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"a", "long-header"});
  t.AddRow({"xxxxxx", "1"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("a       long-header"), std::string::npos);
  EXPECT_NE(s.find("xxxxxx  1"), std::string::npos);
}

TEST(FormattersTest, Fmt) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(2.0, 0), "2");
}

TEST(FormattersTest, FmtCount) {
  EXPECT_EQ(FmtCount(0), "0");
  EXPECT_EQ(FmtCount(999), "999");
  EXPECT_EQ(FmtCount(1000), "1,000");
  EXPECT_EQ(FmtCount(1234567), "1,234,567");
  EXPECT_EQ(FmtCount(-1234), "-1,234");
}

TEST(FormattersTest, Percent) {
  EXPECT_EQ(Percent(0.25), "+25.0%");
  EXPECT_EQ(Percent(-0.091), "-9.1%");
}

}  // namespace
}  // namespace gputc
