// The live plane's building blocks: sliding/tail windows, the alert-rule
// grammar, and the deterministic Histogram::merge the windowed quantile
// rollup depends on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/live/rules.hpp"
#include "obs/live/window.hpp"
#include "obs/metrics.hpp"

namespace realtor::obs::live {
namespace {

TEST(TailWindow, KeepsLastNObservations) {
  TailWindow window(3);
  window.observe(1.0);
  window.observe(0.0);
  EXPECT_EQ(window.snapshot().count, 2u);
  EXPECT_DOUBLE_EQ(window.snapshot().mean(), 0.5);
  window.observe(1.0);
  window.observe(1.0);  // evicts the first 1.0 -> {0, 1, 1}
  EXPECT_EQ(window.snapshot().count, 3u);
  EXPECT_DOUBLE_EQ(window.snapshot().sum, 2.0);
  EXPECT_DOUBLE_EQ(window.snapshot().min, 0.0);
  EXPECT_DOUBLE_EQ(window.snapshot().max, 1.0);
}

TEST(TailWindow, ZeroCapacityClampsToOne) {
  TailWindow window(0);
  EXPECT_EQ(window.capacity(), 1u);
  window.observe(3.0);
  window.observe(7.0);
  EXPECT_EQ(window.snapshot().count, 1u);
  EXPECT_DOUBLE_EQ(window.snapshot().sum, 7.0);
}

TEST(SlidingWindow, ExpiresObservationsPastSpan) {
  SlidingWindow window(10.0, 5);
  window.observe(1.0, 1.0);
  window.observe(2.0, 1.0);
  window.observe(9.0, 1.0);
  EXPECT_EQ(window.snapshot().count, 3u);
  // Slide to t=13: the bucket holding t=1 and t=2 is now outside
  // (13 - 10, 13]; t=9 survives.
  window.advance(13.0);
  EXPECT_EQ(window.snapshot().count, 1u);
  window.advance(100.0);
  EXPECT_EQ(window.snapshot().count, 0u);
  EXPECT_DOUBLE_EQ(window.snapshot().mean(), 0.0);
}

TEST(SlidingWindow, RateUsesElapsedBeforeFullSpan) {
  SlidingWindow window(30.0, 6);
  for (int i = 0; i < 5; ++i) {
    window.count(static_cast<SimTime>(i + 1));
  }
  // 5 events in the first 10 seconds of a 30 s window: the denominator is
  // the elapsed time, not the span, so early rates are not diluted.
  window.advance(10.0);
  EXPECT_DOUBLE_EQ(window.rate(10.0), 0.5);
  // After a full span has elapsed the denominator is the span.
  window.advance(31.0);
  EXPECT_DOUBLE_EQ(window.rate(31.0),
                   static_cast<double>(window.snapshot().count) / 30.0);
}

TEST(SlidingWindow, QuantileRollsUpAcrossBuckets) {
  SlidingWindow window(10.0, 5, /*reservoir_per_bucket=*/16);
  for (int i = 1; i <= 9; ++i) {
    window.observe(static_cast<SimTime>(i), static_cast<double>(i));
  }
  window.advance(9.0);
  EXPECT_NEAR(window.quantile(0.5), 5.0, 1.0);
  EXPECT_GE(window.quantile(0.99), 8.0);
  // Quantiles follow the window: expire the low half.
  window.advance(15.0);
  EXPECT_GE(window.quantile(0.0), 5.0);
}

TEST(SlidingWindow, QuantileZeroWithoutReservoirs) {
  SlidingWindow window(10.0, 5);
  window.observe(1.0, 42.0);
  EXPECT_DOUBLE_EQ(window.quantile(0.5), 0.0);
}

TEST(AlertRules, ParsesTheIssueExamples) {
  AlertRule rule;
  std::string error;
  ASSERT_TRUE(parse_alert_rule("admission_low:admission_probability<0.9/50",
                               rule, &error))
      << error;
  EXPECT_EQ(rule.name, "admission_low");
  EXPECT_EQ(rule.signal, RuleSignal::kAdmissionProbability);
  EXPECT_EQ(rule.op, RuleOp::kLt);
  EXPECT_DOUBLE_EQ(rule.bound, 0.9);
  EXPECT_DOUBLE_EQ(rule.window, 50.0);
  EXPECT_FALSE(rule.relative);

  ASSERT_TRUE(parse_alert_rule("help_storm:help_rate>3x/30", rule, &error))
      << error;
  EXPECT_EQ(rule.signal, RuleSignal::kHelpRate);
  EXPECT_TRUE(rule.relative);
  EXPECT_DOUBLE_EQ(rule.bound, 3.0);

  ASSERT_TRUE(parse_alert_rule("p99_deadline:episode_p99>5/60", rule, &error))
      << error;
  EXPECT_EQ(rule.signal, RuleSignal::kEpisodeP99);
  EXPECT_EQ(rule.op, RuleOp::kGt);
}

TEST(AlertRules, ParsesBurnParamAndWideOps) {
  AlertRule rule;
  std::string error;
  ASSERT_TRUE(
      parse_alert_rule("burn:admission_burn@0.95>=2/100", rule, &error))
      << error;
  EXPECT_EQ(rule.signal, RuleSignal::kAdmissionBurn);
  EXPECT_EQ(rule.op, RuleOp::kGe);
  EXPECT_DOUBLE_EQ(rule.param, 0.95);
  EXPECT_DOUBLE_EQ(rule.window, 100.0);

  ASSERT_TRUE(parse_alert_rule("quorum:nodes_alive<=12", rule, &error))
      << error;
  EXPECT_EQ(rule.signal, RuleSignal::kNodesAlive);
  EXPECT_EQ(rule.op, RuleOp::kLe);
  EXPECT_DOUBLE_EQ(rule.window, 0.0);  // plane default
}

TEST(AlertRules, RoundTripsThroughToString) {
  for (const std::string& spec : default_alert_rules()) {
    AlertRule rule;
    std::string error;
    ASSERT_TRUE(parse_alert_rule(spec, rule, &error)) << error;
    EXPECT_EQ(to_string(rule), spec);
  }
}

TEST(AlertRules, RejectsMalformedSpecs) {
  AlertRule rule;
  std::string error;
  // No name.
  EXPECT_FALSE(parse_alert_rule(":help_rate>3", rule, &error));
  EXPECT_FALSE(parse_alert_rule("help_rate>3", rule, &error));
  // Unknown signal.
  EXPECT_FALSE(parse_alert_rule("a:bogus_signal>3", rule, &error));
  EXPECT_NE(error.find("unknown signal"), std::string::npos);
  // Missing operator / bound.
  EXPECT_FALSE(parse_alert_rule("a:help_rate", rule, &error));
  EXPECT_FALSE(parse_alert_rule("a:help_rate>", rule, &error));
  EXPECT_FALSE(parse_alert_rule("a:help_rate>fast", rule, &error));
  // Bad window.
  EXPECT_FALSE(parse_alert_rule("a:help_rate>3/zero", rule, &error));
  EXPECT_FALSE(parse_alert_rule("a:help_rate>3/-5", rule, &error));
  // Relative bound on a non-rate signal.
  EXPECT_FALSE(parse_alert_rule("a:nodes_alive<2x", rule, &error));
  EXPECT_NE(error.find("rate signals"), std::string::npos);
  // Burn target outside (0, 1).
  EXPECT_FALSE(parse_alert_rule("a:admission_burn@1.5>2", rule, &error));
  EXPECT_FALSE(parse_alert_rule("a:admission_burn>2", rule, &error));
}

TEST(HistogramMerge, ExactStatsAndSmallReservoirUnion) {
  Histogram a(8);
  Histogram b(8);
  for (int i = 1; i <= 4; ++i) a.observe(static_cast<double>(i));
  for (int i = 5; i <= 8; ++i) b.observe(static_cast<double>(i));
  a.merge(b);
  EXPECT_EQ(a.stats().count(), 8u);
  EXPECT_DOUBLE_EQ(a.stats().min(), 1.0);
  EXPECT_DOUBLE_EQ(a.stats().max(), 8.0);
  EXPECT_DOUBLE_EQ(a.stats().mean(), 4.5);
  // Union fits the capacity: quantiles stay exact.
  EXPECT_TRUE(a.exact());
  EXPECT_DOUBLE_EQ(a.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 8.0);
}

TEST(HistogramMerge, DownsampleIsMergeOrderIndependent) {
  // Overflowing unions are downsampled by an even stride over the union
  // sorted by (value, seq) — a pure function of the two reservoirs, so
  // a.merge(b) and b.merge(a) must retain identical samples.
  const auto build = [](int lo, int hi) {
    Histogram h(16);
    for (int i = lo; i <= hi; ++i) {
      h.observe(static_cast<double>((i * 7) % 29));
    }
    return h;
  };
  Histogram ab = build(1, 16);
  Histogram ba = build(17, 32);
  const Histogram a = build(1, 16);
  const Histogram b = build(17, 32);
  ab.merge(b);
  ba.merge(a);
  ASSERT_EQ(ab.reservoir_size(), ba.reservoir_size());
  EXPECT_FALSE(ab.exact());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(ab.quantile(q), ba.quantile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(ab.stats().mean(), ba.stats().mean());
  EXPECT_EQ(ab.stats().count(), ba.stats().count());
}

TEST(HistogramMerge, RepeatedMergeIsDeterministic) {
  // Same inputs, two independent rollups: byte-identical quantiles. This
  // is the property the live plane's windowed p99 relies on across
  // --jobs and --exec modes.
  const auto rollup = [] {
    Histogram total(12);
    for (int bucket = 0; bucket < 6; ++bucket) {
      Histogram h(12);
      for (int i = 0; i < 10; ++i) {
        h.observe(static_cast<double>((bucket * 31 + i * 13) % 47));
      }
      total.merge(h);
    }
    return total;
  };
  const Histogram x = rollup();
  const Histogram y = rollup();
  ASSERT_EQ(x.reservoir_size(), y.reservoir_size());
  for (double q : {0.01, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(x.quantile(q), y.quantile(q));
  }
}

TEST(HistogramMerge, MergingEmptyIsANoOp) {
  Histogram a(4);
  a.observe(2.0);
  const Histogram empty(4);
  a.merge(empty);
  EXPECT_EQ(a.stats().count(), 1u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 2.0);
  Histogram b(4);
  b.merge(a);
  EXPECT_EQ(b.stats().count(), 1u);
  EXPECT_DOUBLE_EQ(b.quantile(0.5), 2.0);
}

}  // namespace
}  // namespace realtor::obs::live
