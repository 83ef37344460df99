#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace realtor {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(OnlineStats, KnownSequence) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: sum sq dev = 32, /7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, SingleSampleHasZeroVariance) {
  OnlineStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(OnlineStats, MergeMatchesSequential) {
  RngStream rng(3, "stats");
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
  EXPECT_EQ(empty.count(), 2u);
}

TEST(OnlineStats, Ci95ShrinksWithSamples) {
  RngStream rng(3, "ci");
  OnlineStats small, large;
  for (int i = 0; i < 10; ++i) small.add(rng.uniform01());
  for (int i = 0; i < 1000; ++i) large.add(rng.uniform01());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(TimeWeightedStats, PiecewiseConstantAverage) {
  TimeWeightedStats tw;
  tw.update(0.0, 1.0);   // value 1 on [0, 10)
  tw.update(10.0, 3.0);  // value 3 on [10, 20)
  EXPECT_DOUBLE_EQ(tw.average(20.0), 2.0);
}

TEST(TimeWeightedStats, UnequalIntervals) {
  TimeWeightedStats tw;
  tw.update(0.0, 4.0);  // 4 for 1s
  tw.update(1.0, 0.0);  // 0 for 3s
  EXPECT_DOUBLE_EQ(tw.average(4.0), 1.0);
}

TEST(TimeWeightedStats, EmptyAverageIsZero) {
  TimeWeightedStats tw;
  EXPECT_DOUBLE_EQ(tw.average(100.0), 0.0);
  EXPECT_TRUE(tw.empty());
}

TEST(TimeWeightedStats, WindowStartsAtFirstSample) {
  TimeWeightedStats tw;
  tw.update(50.0, 2.0);
  EXPECT_DOUBLE_EQ(tw.average(60.0), 2.0);
}

TEST(TimeWeightedStats, RepeatedSamplesAtSameInstant) {
  TimeWeightedStats tw;
  tw.update(0.0, 1.0);
  tw.update(0.0, 5.0);  // replaces the value at t=0 with zero elapsed time
  EXPECT_DOUBLE_EQ(tw.average(10.0), 5.0);
}

}  // namespace
}  // namespace realtor
