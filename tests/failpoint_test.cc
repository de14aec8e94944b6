#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

#include "util/checked_math.h"
#include "util/deadline.h"
#include "util/failpoint.h"

namespace gputc {
namespace {

/// Every test wipes the registry on entry and exit so an ambient
/// GPUTC_FAILPOINTS (or a sibling test) cannot perturb its schedule.
class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Instance().Reset(); }
  void TearDown() override { FailPointRegistry::Instance().Reset(); }
};

TEST_F(FailPointTest, IdleSiteIsFree) {
  EXPECT_FALSE(FailPointRegistry::Instance().has_armed_or_observed());
  FailPointScope scope;
  EXPECT_TRUE(CheckFailPoint("tc.hu").ok());
}

TEST_F(FailPointTest, ArmedSiteFiresOnlyInsideScope) {
  FailPointRegistry::Instance().Arm("tc.hu", FailPointSpec{});
  EXPECT_TRUE(FailPointRegistry::Instance().has_armed_or_observed());
  // Outside any scope the site stays silent: oracle code that never opted
  // into recovery must not see injected errors.
  EXPECT_FALSE(FailPointScope::active());
  EXPECT_TRUE(CheckFailPoint("tc.hu").ok());

  FailPointScope scope;
  EXPECT_TRUE(FailPointScope::active());
  const Status status = CheckFailPoint("tc.hu");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_TRUE(CheckFailPoint("tc.polak").ok()) << "only armed sites fire";
}

TEST_F(FailPointTest, DisarmSilencesSite) {
  FailPointRegistry::Instance().Arm("io.load", FailPointSpec{});
  FailPointRegistry::Instance().Disarm("io.load");
  FailPointScope scope;
  EXPECT_TRUE(CheckFailPoint("io.load").ok());
}

TEST_F(FailPointTest, CountLimitedFiringStopsAfterBudget) {
  FailPointSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.count = 2;
  FailPointRegistry::Instance().Arm("io.load", spec);
  FailPointScope scope;
  EXPECT_EQ(CheckFailPoint("io.load").code(), StatusCode::kDataLoss);
  EXPECT_EQ(CheckFailPoint("io.load").code(), StatusCode::kDataLoss);
  EXPECT_TRUE(CheckFailPoint("io.load").ok()) << "budget of 2 spent";
  EXPECT_EQ(FailPointRegistry::Instance().hits("io.load"), 3);
}

TEST_F(FailPointTest, ZeroProbabilityNeverFires) {
  FailPointSpec spec;
  spec.probability = 0.0;
  FailPointRegistry::Instance().Arm("tc.block", spec);
  FailPointScope scope;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(CheckFailPoint("tc.block").ok());
  }
  EXPECT_EQ(FailPointRegistry::Instance().hits("tc.block"), 100);
}

TEST_F(FailPointTest, SeededProbabilityIsDeterministicAndRoughlyFair) {
  auto count_fires = [](uint64_t seed) {
    FailPointRegistry::Instance().Reset();
    FailPointSpec spec;
    spec.probability = 0.5;
    spec.seed = seed;
    FailPointRegistry::Instance().Arm("tc.hu", spec);
    FailPointScope scope;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      if (!CheckFailPoint("tc.hu").ok()) ++fired;
    }
    return fired;
  };
  const int first = count_fires(7);
  EXPECT_EQ(first, count_fires(7)) << "same seed, same schedule";
  EXPECT_GT(first, 300);
  EXPECT_LT(first, 700);
}

TEST_F(FailPointTest, ArmFromStringParsesFullGrammar) {
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .ArmFromString(
                      "tc.hu=internal@2;io.load=data_loss%0.5$9;"
                      "sim.memory=resource_exhausted")
                  .ok());
  const auto armed = FailPointRegistry::Instance().ArmedSites();
  EXPECT_EQ(armed.size(), 3u);
  FailPointScope scope;
  EXPECT_EQ(CheckFailPoint("sim.memory").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(CheckFailPoint("tc.hu").code(), StatusCode::kInternal);
  EXPECT_EQ(CheckFailPoint("tc.hu").code(), StatusCode::kInternal);
  EXPECT_TRUE(CheckFailPoint("tc.hu").ok()) << "@2 budget spent";
}

TEST_F(FailPointTest, ErrnoAliasesInjectTheMappedStatusWithLabel) {
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .ArmFromString("fsa=enospc;fsb=eio;fsc=edquot")
                  .ok());
  FailPointScope scope;
  const Status enospc = CheckFailPoint("fsa");
  EXPECT_EQ(enospc.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(enospc.ToString().find("injected ENOSPC"), std::string::npos)
      << enospc.ToString();
  const Status eio = CheckFailPoint("fsb");
  EXPECT_EQ(eio.code(), StatusCode::kDataLoss);
  EXPECT_NE(eio.ToString().find("injected EIO"), std::string::npos);
  const Status edquot = CheckFailPoint("fsc");
  EXPECT_EQ(edquot.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(edquot.ToString().find("injected EDQUOT"), std::string::npos);
}

TEST_F(FailPointTest, SkipLetsEarlyHitsPassThenFiresForever) {
  // ^3 with no @count: three passes, then every hit fails — the disk that
  // worked until it filled. The storage suite leans on this shape.
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("fs.x=enospc^3").ok());
  FailPointScope scope;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(CheckFailPoint("fs.x").ok()) << "skip hit " << i;
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(CheckFailPoint("fs.x").code(), StatusCode::kResourceExhausted)
        << "post-skip hit " << i;
  }
  EXPECT_EQ(FailPointRegistry::Instance().hits("fs.x"), 8);
}

TEST_F(FailPointTest, SkipComposesWithCount) {
  // ^2@2: two passes, two failures, then the budget is spent and the site
  // goes quiet — a transient fault window.
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("fs.y=eio@2^2").ok());
  FailPointScope scope;
  EXPECT_TRUE(CheckFailPoint("fs.y").ok());
  EXPECT_TRUE(CheckFailPoint("fs.y").ok());
  EXPECT_FALSE(CheckFailPoint("fs.y").ok());
  EXPECT_FALSE(CheckFailPoint("fs.y").ok());
  EXPECT_TRUE(CheckFailPoint("fs.y").ok()) << "@2 budget spent";
}

TEST_F(FailPointTest, ArmFromStringRejectsBadEntriesAtomically) {
  EXPECT_FALSE(
      FailPointRegistry::Instance().ArmFromString("tc.hu=bogus_code").ok());
  EXPECT_FALSE(FailPointRegistry::Instance().ArmFromString("no_equals").ok());
  EXPECT_FALSE(
      FailPointRegistry::Instance().ArmFromString("tc.hu=internal%2.5").ok());
  // A bad entry must not arm the valid ones before it.
  EXPECT_FALSE(FailPointRegistry::Instance()
                   .ArmFromString("tc.hu=internal;tc.polak=nope")
                   .ok());
  EXPECT_TRUE(FailPointRegistry::Instance().ArmedSites().empty());
}

TEST_F(FailPointTest, CrashActionParsesWithFullGrammar) {
  // Arming only — firing a crash action would kill the test process, which
  // is exactly what crash_recovery_test does from a fork/exec harness.
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .ArmFromString("wal.done=crash@1;durable.commit=crash%0.5$7")
                  .ok());
  EXPECT_EQ(FailPointRegistry::Instance().ArmedSites().size(), 2u);
}

TEST_F(FailPointTest, CrashActionWithZeroProbabilityNeverFires) {
  // Proves the probability gate runs before the action: an armed crash with
  // p = 0 must be a no-op, not a kill.
  ASSERT_TRUE(
      FailPointRegistry::Instance().ArmFromString("tc.hu=crash%0.0").ok());
  FailPointScope scope;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(CheckFailPoint("tc.hu").ok());
}

TEST_F(FailPointTest, CrashActionRejectsTrailingGarbage) {
  const Status bad = FailPointRegistry::Instance().ArmFromString("tc.hu=crashx");
  ASSERT_FALSE(bad.ok());
  // The error's valid-code list must advertise the crash action.
  EXPECT_NE(bad.message().find("crash"), std::string::npos) << bad.ToString();
}

TEST_F(FailPointTest, ObserverSeesHitsWithoutArming) {
  int64_t last_hit = 0;
  FailPointRegistry::Instance().SetObserver(
      "tc.block", [&last_hit](int64_t hit) { last_hit = hit; });
  FailPointScope scope;
  EXPECT_TRUE(CheckFailPoint("tc.block").ok());
  EXPECT_TRUE(CheckFailPoint("tc.block").ok());
  EXPECT_EQ(last_hit, 2);
  EXPECT_EQ(FailPointRegistry::Instance().hits("tc.block"), 2);
}

TEST_F(FailPointTest, ScopesNest) {
  FailPointRegistry::Instance().Arm("tc.hu", FailPointSpec{});
  FailPointScope outer;
  {
    FailPointScope inner;
    EXPECT_FALSE(CheckFailPoint("tc.hu").ok());
  }
  EXPECT_TRUE(FailPointScope::active()) << "outer scope still open";
  EXPECT_FALSE(CheckFailPoint("tc.hu").ok());
}

TEST(DeadlineTest, DefaultNeverExpires) {
  const Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_millis(), std::numeric_limits<double>::infinity());
}

TEST(DeadlineTest, ShortDeadlineExpires) {
  const Deadline d = Deadline::AfterMillis(0.5);
  EXPECT_FALSE(d.is_infinite());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.expired());
  EXPECT_LT(d.remaining_millis(), 0.0);
}

TEST(DeadlineTest, GenerousDeadlineHasTimeLeft) {
  const Deadline d = Deadline::AfterMillis(60'000.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_millis(), 0.0);
}

TEST(CancelTokenTest, CopiesShareOneFlag) {
  CancelToken original;
  CancelToken copy = original;
  EXPECT_FALSE(copy.cancelled());
  original.Cancel("test stop");
  EXPECT_TRUE(copy.cancelled());
  EXPECT_EQ(copy.reason(), "test stop");
}

TEST(CancelTokenTest, FirstReasonWins) {
  CancelToken token;
  token.Cancel("first");
  token.Cancel("second");
  EXPECT_EQ(token.reason(), "first");
}

TEST(CancelTokenTest, CancelAtWaitsForItsDeadline) {
  CancelToken token;
  token.CancelAt(Deadline::AfterMillis(60'000.0), "later");
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), "");
}

TEST(CancelTokenTest, CancelAtFiresWithItsReasonOnceTheDeadlinePasses) {
  CancelToken token;
  const CancelToken copy = token;
  token.CancelAt(Deadline::AfterMillis(1.0), "grace over");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(copy.cancelled());
  EXPECT_EQ(copy.reason(), "grace over");
}

TEST(CancelTokenTest, EarlierCancelKeepsItsReason) {
  CancelToken token;
  token.Cancel("first");
  token.CancelAt(Deadline::AfterMillis(0.0), "deadline");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "first");
}

TEST(CancelTokenTest, SecondCancelAtDoesNotMoveTheFirstDeadline) {
  CancelToken late;
  late.CancelAt(Deadline::AfterMillis(60'000.0), "first");
  late.CancelAt(Deadline::AfterMillis(0.0), "second");
  EXPECT_FALSE(late.cancelled());

  CancelToken early;
  early.CancelAt(Deadline::AfterMillis(0.0), "first");
  early.CancelAt(Deadline::AfterMillis(60'000.0), "second");
  EXPECT_TRUE(early.cancelled());
  EXPECT_EQ(early.reason(), "first");
}

TEST(ExecContextTest, UnconstrainedContextAlwaysContinues) {
  const ExecContext ctx;
  EXPECT_FALSE(ctx.stop_requested());
  EXPECT_TRUE(ctx.CheckContinue("tc.hu").ok());
  EXPECT_EQ(ctx.count_limit, std::numeric_limits<int64_t>::max());
}

TEST(ExecContextTest, CancellationSurfacesAsCancelledWithSite) {
  ExecContext ctx;
  ctx.cancel.Cancel("user interrupt");
  EXPECT_TRUE(ctx.stop_requested());
  const Status status = ctx.CheckContinue("tc.block");
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.ToString().find("tc.block"), std::string::npos);
  EXPECT_NE(status.ToString().find("user interrupt"), std::string::npos);
}

TEST(ExecContextTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  ExecContext ctx;
  ctx.deadline = Deadline::AfterMillis(0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(ctx.stop_requested());
  EXPECT_EQ(ctx.CheckContinue("preprocess").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(CheckedMathTest, PredicatesMatchBuiltinLimits) {
  const int64_t big = std::numeric_limits<int64_t>::max();
  EXPECT_FALSE(AddWouldOverflow(big - 1, 1));
  EXPECT_TRUE(AddWouldOverflow(big, 1));
  EXPECT_TRUE(MulWouldOverflow(big / 2 + 1, 2));
  EXPECT_FALSE(MulWouldOverflow(1'000'000, 1'000'000));
  EXPECT_EQ(SaturatingAdd(big, 1), big);
  EXPECT_EQ(SaturatingAdd(std::numeric_limits<int64_t>::min(), -1),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(SaturatingAdd(40, 2), 42);
}

TEST(CheckedMathTest, AccumulatorSumsBelowLimit) {
  CheckedInt64 acc;
  acc.Add(40);
  acc.Add(2);
  EXPECT_EQ(acc.value(), 42);
  EXPECT_FALSE(acc.overflowed());
  EXPECT_TRUE(acc.ToStatus("count").ok());
}

TEST(CheckedMathTest, AccumulatorSaturatesAtConfiguredLimit) {
  CheckedInt64 acc(/*limit=*/10);
  acc.Add(6);
  acc.Add(6);  // 12 > 10: saturate, raise the sticky flag.
  acc.Add(1);  // Further adds are ignored.
  EXPECT_TRUE(acc.overflowed());
  EXPECT_EQ(acc.value(), 10);
  const Status status = acc.ToStatus("triangle count");
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(status.ToString().find("triangle count"), std::string::npos);
  EXPECT_NE(status.ToString().find("10"), std::string::npos);
}

TEST(CheckedMathTest, AccumulatorCatchesTrueInt64Overflow) {
  CheckedInt64 acc;
  acc.Add(std::numeric_limits<int64_t>::max());
  acc.Add(1);
  EXPECT_TRUE(acc.overflowed());
  EXPECT_EQ(acc.ToStatus("sum").code(), StatusCode::kOutOfRange);
}

TEST(CheckedMathTest, MergedPartialsOverflowAsOneAccumulatorWould) {
  // A partial that saturated alone, at the limit itself, still overflows
  // the merge; partials that fit alone overflow once their sum passes.
  CheckedInt64 saturated(/*limit=*/10);
  saturated.Add(11);
  CheckedInt64 merged(/*limit=*/10);
  merged.Add(saturated);
  EXPECT_TRUE(merged.overflowed());
  EXPECT_EQ(merged.ToStatus("count").ToString(),
            saturated.ToStatus("count").ToString());

  CheckedInt64 six(/*limit=*/10);
  six.Add(6);
  CheckedInt64 sum(/*limit=*/10);
  sum.Add(six);
  EXPECT_FALSE(sum.overflowed());
  sum.Add(six);
  EXPECT_TRUE(sum.overflowed());
  EXPECT_EQ(sum.value(), 10);
}

}  // namespace
}  // namespace gputc
