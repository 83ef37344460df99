// Timeline J — attack response over time (the survivability narrative of
// §1 as a time series, not plotted in the paper). Ten of 25 nodes die at
// t=200 s (1 s warning) and recover at t=350 s; we sample windowed
// admission probability, mean occupancy and protocol overhead every 25 s
// for REALTOR and the two extreme baselines.
// Expected: a dip in windowed admission after the attack (40% capacity
// gone), REALTOR recovering within a TTL of the restore, and the overhead
// column showing who pays what for the recovery.
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  // High enough that losing 40% of the hosts overloads the survivors
  // (arrivals addressed to dead hosts never reach the admission path).
  const double lambda = flags.get_double("lambda", 7.0);

  std::cout << "Timeline: windowed admission through an attack wave "
            << "(lambda=" << lambda
            << ", 10/25 nodes down t=200..350s, 25s windows)\n";

  const proto::ProtocolKind kinds[] = {proto::ProtocolKind::kRealtor,
                                       proto::ProtocolKind::kPurePush,
                                       proto::ProtocolKind::kAdaptivePull};

  std::vector<std::vector<experiment::TimelineSample>> timelines;
  for (const auto kind : kinds) {
    experiment::ScenarioConfig config = experiment::scenario_from_flags(flags);
    config.protocol_kind = kind;
    config.lambda = lambda;
    config.duration = flags.get_double("duration", 500.0);
    config.sample_interval = 25.0;
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    experiment::AttackWave wave;
    wave.time = 200.0;
    wave.count = 10;
    wave.grace = 1.0;
    wave.outage = 150.0;
    config.attacks = {wave};
    experiment::Simulation sim(config);
    sim.run();
    timelines.push_back(sim.timeline());
  }

  Table table({"t (s)", "alive", "occupancy", "REALTOR admit",
               "Push-1 admit", "Pull-100 admit", "REALTOR overhead"});
  for (std::size_t i = 0; i < timelines[0].size(); ++i) {
    table.row()
        .cell(timelines[0][i].time, 0)
        .cell(static_cast<std::uint64_t>(timelines[0][i].alive_nodes))
        .cell(timelines[0][i].mean_occupancy, 3)
        .cell(timelines[0][i].window_admission, 4)
        .cell(timelines[1][i].window_admission, 4)
        .cell(timelines[2][i].window_admission, 4)
        .cell(timelines[0][i].overhead_cost, 0);
  }
  std::cout << '\n';
  table.print(std::cout);
  const std::string csv = flags.get_string("csv", "");
  if (!csv.empty()) table.save_csv(csv);
  return 0;
}
