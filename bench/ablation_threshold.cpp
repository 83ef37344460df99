// Ablation D — threshold sensitivity. §5 fixes both Algorithm H's and
// Algorithm P's levels at 0.9 ("Pull-.9", "Push-.9"); this sweeps the
// shared threshold for REALTOR at a mid-load and an overload point.
// Expected: low thresholds solicit early and often (more overhead, little
// admission benefit); very high thresholds react too late to migrate.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 3));

  std::cout << "Ablation D: Algorithm H/P threshold sweep (REALTOR, reps="
            << reps << ")\n";

  Table table({"threshold", "admit@6", "overhead@6", "migr@6", "admit@8",
               "overhead@8", "migr@8"});
  for (const double threshold :
       {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}) {
    table.row().cell(threshold, 2);
    for (const double lambda : {6.0, 8.0}) {
      OnlineStats admit, overhead, migration;
      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        experiment::ScenarioConfig config =
            experiment::scenario_from_flags(flags);
        config.protocol.help_threshold = threshold;
        config.protocol.pledge_threshold = threshold;
        config.protocol.availability_floor = 1.0 - threshold;
        config.protocol_kind = proto::ProtocolKind::kRealtor;
        config.lambda = lambda;
        config.duration = flags.get_double("duration", 400.0);
        config.seed = 42 + 32452843ULL * rep;
        experiment::Simulation sim(config);
        const auto& m = sim.run();
        admit.add(m.admission_probability());
        overhead.add(m.total_messages());
        migration.add(m.migration_rate());
      }
      table.cell(admit.mean(), 4).cell(overhead.mean(), 0).cell(
          migration.mean(), 4);
    }
  }
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}
