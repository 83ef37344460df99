// Trace record/replay and the run-timeline probe.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "experiment/simulation.hpp"
#include "trace/workload_csv.hpp"

namespace realtor {
namespace {

std::vector<trace::TraceRecord> sample_trace() {
  auto arrivals = sim::generate_poisson_trace(3, 5.0, 5.0, 25, 100);
  auto records = trace::from_arrivals(arrivals);
  records[0].bandwidth_share = 0.25;
  records[0].min_security = 3;
  return records;
}

TEST(WorkloadCsv, RoundTripsExactly) {
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::save_csv(buffer, original);
  const auto loaded = trace::load_csv(buffer);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.records.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.records[i].arrival.id, original[i].arrival.id);
    // %.17g formatting round-trips doubles bit-exactly.
    EXPECT_EQ(loaded.records[i].arrival.time, original[i].arrival.time);
    EXPECT_EQ(loaded.records[i].arrival.size_seconds,
              original[i].arrival.size_seconds);
    EXPECT_EQ(loaded.records[i].arrival.node, original[i].arrival.node);
    EXPECT_EQ(loaded.records[i].bandwidth_share, original[i].bandwidth_share);
    EXPECT_EQ(loaded.records[i].min_security, original[i].min_security);
  }
}

TEST(WorkloadCsv, FileRoundTrip) {
  const auto original = sample_trace();
  const std::string path = ::testing::TempDir() + "/realtor_trace_test.csv";
  ASSERT_TRUE(trace::save_csv_file(path, original));
  const auto loaded = trace::load_csv_file(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.records.size(), original.size());
  std::remove(path.c_str());
}

TEST(WorkloadCsv, RejectsBadHeader) {
  std::stringstream buffer("id,time\n1,2\n");
  const auto loaded = trace::load_csv(buffer);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("header"), std::string::npos);
}

TEST(WorkloadCsv, RejectsMalformedRows) {
  const char* header = "id,time,size_seconds,node,bandwidth,min_security\n";
  const struct {
    const char* row;
    const char* what;
  } cases[] = {
      {"x,1.0,5.0,0,0,0\n", "bad id"},
      {"1,abc,5.0,0,0,0\n", "bad time"},
      {"1,1.0,5.0,0,0\n", "expected 6 fields"},
      {"1,1.0,5.0,0,0,0,9\n", "too many fields"},
      {"1,1.0,-5.0,0,0,0\n", "non-positive size"},
      {"1,1.0,5.0,0,0,999\n", "bad security"},
  };
  for (const auto& c : cases) {
    std::stringstream buffer(std::string(header) + c.row);
    const auto loaded = trace::load_csv(buffer);
    EXPECT_FALSE(loaded.ok) << c.row;
    EXPECT_NE(loaded.error.find(c.what), std::string::npos)
        << "got: " << loaded.error;
  }
}

TEST(WorkloadCsv, RejectsUnsortedTimestamps) {
  std::stringstream buffer(
      "id,time,size_seconds,node,bandwidth,min_security\n"
      "0,5.0,1.0,0,0,0\n"
      "1,4.0,1.0,0,0,0\n");
  const auto loaded = trace::load_csv(buffer);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("sorted"), std::string::npos);
}

TEST(WorkloadCsv, RandomGarbageNeverCrashesParser) {
  RngStream rng(77, "csv-fuzz");
  const char charset[] = "0123456789.,-eE+x \t\"';\n";
  for (int trial = 0; trial < 300; ++trial) {
    std::string input = "id,time,size_seconds,node,bandwidth,min_security\n";
    const std::size_t length = rng.uniform_index(200);
    for (std::size_t i = 0; i < length; ++i) {
      input += charset[rng.uniform_index(sizeof(charset) - 1)];
    }
    std::stringstream buffer(input);
    const auto loaded = trace::load_csv(buffer);  // must not crash or hang
    if (!loaded.ok) {
      EXPECT_FALSE(loaded.error.empty());
    }
  }
}

TEST(WorkloadCsv, MissingFileReportsError) {
  const auto loaded = trace::load_csv_file("/nonexistent/trace.csv");
  EXPECT_FALSE(loaded.ok);
  EXPECT_FALSE(loaded.error.empty());
}

TEST(TraceReplay, ReproducesLiveRunExactly) {
  experiment::ScenarioConfig config;
  config.protocol_kind = proto::ProtocolKind::kRealtor;
  config.lambda = 8.0;
  config.duration = 150.0;
  config.seed = 17;

  experiment::Simulation live(config);
  const auto& live_metrics = live.run();

  // Replay the identical arrival stream through inject().
  auto arrivals = sim::generate_poisson_trace(
      config.seed, config.lambda, config.mean_task_size, 25,
      live_metrics.generated);
  experiment::ScenarioConfig replay_config = config;
  replay_config.external_arrivals = true;
  experiment::Simulation replay(replay_config);
  for (const sim::Arrival& a : arrivals) {
    replay.engine().schedule_at(a.time, [&replay, a] { replay.inject(a); });
  }
  const auto& replay_metrics = replay.run();

  EXPECT_EQ(replay_metrics.generated, live_metrics.generated);
  EXPECT_EQ(replay_metrics.admitted_local, live_metrics.admitted_local);
  EXPECT_EQ(replay_metrics.admitted_migrated, live_metrics.admitted_migrated);
  EXPECT_EQ(replay_metrics.rejected, live_metrics.rejected);
  EXPECT_DOUBLE_EQ(replay_metrics.ledger.total_cost(),
                   live_metrics.ledger.total_cost());
}

TEST(Timeline, SamplesAtConfiguredInterval) {
  experiment::ScenarioConfig config;
  config.lambda = 6.0;
  config.duration = 100.0;
  config.sample_interval = 10.0;
  config.seed = 5;
  experiment::Simulation sim(config);
  sim.run();
  const auto& timeline = sim.timeline();
  ASSERT_EQ(timeline.size(), 10u);
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_DOUBLE_EQ(timeline[i].time, 10.0 * static_cast<double>(i + 1));
    EXPECT_EQ(timeline[i].alive_nodes, 25u);
  }
  // Cumulative counters are monotone.
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].generated, timeline[i - 1].generated);
    EXPECT_GE(timeline[i].overhead_cost, timeline[i - 1].overhead_cost);
  }
}

TEST(Timeline, CapturesAttackDipAndRecovery) {
  experiment::ScenarioConfig config;
  config.protocol_kind = proto::ProtocolKind::kRealtor;
  config.lambda = 5.0;
  config.duration = 300.0;
  config.sample_interval = 10.0;
  config.seed = 5;
  experiment::AttackWave wave;
  wave.time = 100.0;
  wave.count = 10;
  wave.grace = 1.0;
  wave.outage = 100.0;
  config.attacks = {wave};
  experiment::Simulation sim(config);
  sim.run();
  const auto& timeline = sim.timeline();
  ASSERT_FALSE(timeline.empty());
  bool saw_degraded = false;
  bool recovered = false;
  for (const auto& sample : timeline) {
    if (sample.time > 101.0 && sample.time <= 201.0) {
      EXPECT_EQ(sample.alive_nodes, 15u);
      saw_degraded = true;
    }
    if (sample.time > 210.0) {
      recovered = sample.alive_nodes == 25u;
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(recovered);
}

TEST(Timeline, DisabledByDefault) {
  experiment::ScenarioConfig config;
  config.duration = 50.0;
  experiment::Simulation sim(config);
  sim.run();
  EXPECT_TRUE(sim.timeline().empty());
}

}  // namespace
}  // namespace realtor
