#include "sim/arrivals.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace realtor::sim {
namespace {

TEST(PoissonArrivals, RateApproximatelyCorrect) {
  Engine e;
  std::uint64_t count = 0;
  PoissonArrivals arrivals(e, 7, /*rate=*/5.0, /*mean_size=*/5.0,
                           /*num_nodes=*/25,
                           [&](const Arrival&) { ++count; });
  arrivals.start();
  e.run_until(1000.0);
  // Expect ~5000; Poisson sd ~ 71.
  EXPECT_NEAR(static_cast<double>(count), 5000.0, 300.0);
}

TEST(PoissonArrivals, SizesHaveConfiguredMean) {
  Engine e;
  double total = 0.0;
  std::uint64_t count = 0;
  PoissonArrivals arrivals(e, 7, 10.0, 5.0, 25, [&](const Arrival& a) {
    total += a.size_seconds;
    ++count;
  });
  arrivals.start();
  e.run_until(2000.0);
  EXPECT_NEAR(total / static_cast<double>(count), 5.0, 0.2);
}

TEST(PoissonArrivals, NodesCoverRangeUniformly) {
  Engine e;
  std::vector<std::uint64_t> per_node(5, 0);
  PoissonArrivals arrivals(e, 7, 10.0, 5.0, 5, [&](const Arrival& a) {
    ASSERT_LT(a.node, 5u);
    ++per_node[a.node];
  });
  arrivals.start();
  e.run_until(2000.0);
  for (const auto c : per_node) {
    EXPECT_NEAR(static_cast<double>(c), 4000.0, 400.0);
  }
}

TEST(PoissonArrivals, TaskIdsAreSequential) {
  Engine e;
  TaskId expected = 0;
  PoissonArrivals arrivals(e, 3, 5.0, 5.0, 25, [&](const Arrival& a) {
    EXPECT_EQ(a.id, expected++);
  });
  arrivals.start();
  e.run_until(50.0);
  EXPECT_GT(expected, 100u);
}

TEST(PoissonArrivals, StopHaltsGeneration) {
  Engine e;
  std::uint64_t count = 0;
  PoissonArrivals arrivals(e, 3, 10.0, 5.0, 25,
                           [&](const Arrival&) { ++count; });
  arrivals.start();
  e.run_until(10.0);
  const std::uint64_t at_stop = count;
  arrivals.stop();
  e.run_until(100.0);
  EXPECT_EQ(count, at_stop);
}

TEST(PoissonArrivals, DeterministicAcrossRuns) {
  std::vector<SimTime> first, second;
  for (auto* sink : {&first, &second}) {
    Engine e;
    PoissonArrivals arrivals(e, 11, 4.0, 5.0, 25, [&](const Arrival& a) {
      sink->push_back(a.time);
    });
    arrivals.start();
    e.run_until(100.0);
  }
  EXPECT_EQ(first, second);
}

TEST(GeneratePoissonTrace, MatchesLiveGenerator) {
  const auto trace = generate_poisson_trace(11, 4.0, 5.0, 25, 200);
  Engine e;
  std::vector<Arrival> live;
  PoissonArrivals arrivals(e, 11, 4.0, 5.0, 25,
                           [&](const Arrival& a) { live.push_back(a); });
  arrivals.start();
  while (live.size() < 200) {
    ASSERT_GT(e.step(1), 0u);
  }
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(trace[i].time, live[i].time);
    EXPECT_DOUBLE_EQ(trace[i].size_seconds, live[i].size_seconds);
    EXPECT_EQ(trace[i].node, live[i].node);
    EXPECT_EQ(trace[i].id, live[i].id);
  }
}

}  // namespace
}  // namespace realtor::sim
