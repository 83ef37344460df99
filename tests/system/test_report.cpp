#include "experiment/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace realtor::experiment {
namespace {

ScenarioConfig report_config() {
  ScenarioConfig config;
  config.protocol_kind = proto::ProtocolKind::kRealtor;
  config.lambda = 8.0;
  config.duration = 150.0;
  config.sample_interval = 50.0;
  config.seed = 9;
  return config;
}

TEST(Report, SummaryTableCoversHeadlineMetrics) {
  Simulation sim(report_config());
  sim.run();
  const Table table = summary_table(sim.metrics());
  std::ostringstream os;
  table.print(os);
  const std::string text = os.str();
  for (const char* key :
       {"tasks generated", "admission probability", "migration rate",
        "completed", "overhead units"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

TEST(Report, SummaryOmitsInactiveSections) {
  Simulation sim(report_config());
  sim.run();
  std::ostringstream os;
  summary_table(sim.metrics()).print(os);
  const std::string text = os.str();
  // No attacks, no federation, no elusiveness in this run.
  EXPECT_EQ(text.find("evacuation"), std::string::npos);
  EXPECT_EQ(text.find("escalations"), std::string::npos);
  EXPECT_EQ(text.find("elusive"), std::string::npos);
}

TEST(Report, LedgerTableTotalsMatchMetrics) {
  Simulation sim(report_config());
  sim.run();
  const Table table = ledger_table(sim.metrics());
  // Last row is TOTAL; its cost column equals the ledger total.
  const std::size_t last = table.num_rows() - 1;
  EXPECT_EQ(table.at(last, 0), "TOTAL");
  EXPECT_NEAR(std::stod(table.at(last, 2)), sim.metrics().ledger.total_cost(),
              0.1);
}

TEST(Report, PerNodeTableHasOneRowPerNode) {
  Simulation sim(report_config());
  sim.run();
  const Table table = per_node_table(sim);
  EXPECT_EQ(table.num_rows(), 25u);
  EXPECT_EQ(table.at(0, 1), "yes");  // all alive
}

TEST(Report, TimelineTableMatchesSamples) {
  Simulation sim(report_config());
  sim.run();
  const Table table = timeline_table(sim);
  EXPECT_EQ(table.num_rows(), sim.timeline().size());
  EXPECT_EQ(table.num_rows(), 3u);  // 150s / 50s
}

TEST(Report, PrintReportVerboseIncludesPerNode) {
  Simulation sim(report_config());
  sim.run();
  std::ostringstream os;
  print_report(os, "test run", sim, /*verbose=*/true);
  const std::string text = os.str();
  EXPECT_NE(text.find("== test run =="), std::string::npos);
  EXPECT_NE(text.find("-- message accounting --"), std::string::npos);
  EXPECT_NE(text.find("-- timeline --"), std::string::npos);
  EXPECT_NE(text.find("-- per node --"), std::string::npos);
}

TEST(Report, AttackRunShowsSurvivabilitySection) {
  ScenarioConfig config = report_config();
  AttackWave wave;
  wave.time = 50.0;
  wave.count = 5;
  wave.grace = 1.0;
  wave.outage = 50.0;
  config.attacks = {wave};
  Simulation sim(config);
  sim.run();
  std::ostringstream os;
  summary_table(sim.metrics()).print(os);
  EXPECT_NE(os.str().find("evacuation"), std::string::npos);
}

}  // namespace
}  // namespace realtor::experiment
