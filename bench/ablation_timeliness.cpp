// Ablation L — information timeliness. §5 explains Fig. 8's ordering by
// the "untimeliness of the pull-based approach: ... information is
// collected before migration request rises, [so] the information can be
// out-of-dated rather easily", while adaptive push "is more timely because
// each host disseminates information only when it changes the status."
//
// We make staleness physical: a per-hop propagation delay on every
// protocol message (floods arrive hop by hop, pledges take their path
// length). As the delay grows, every scheme's candidate information ages;
// the claim predicts the demand-driven schemes keep their admission edge
// while absolute effectiveness decays for everyone.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"

int main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 3));
  const double lambda = flags.get_double("lambda", 8.0);

  std::cout << "Ablation L: per-hop delay vs admission probability "
            << "(lambda=" << lambda << ", reps=" << reps << ")\n";

  Table table({"hop delay (s)", "Pull-.9", "Push-1", "Push-.9", "Pull-100",
               "REALTOR-100"});
  for (const double delay :
       flags.get_double_list("delays", {0.0, 0.1, 0.5, 1.0, 2.0})) {
    table.row().cell(delay, 2);
    for (const auto kind : proto::kAllProtocolKinds) {
      OnlineStats admit;
      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        experiment::ScenarioConfig config =
            experiment::scenario_from_flags(flags);
        config.protocol_kind = kind;
        config.lambda = lambda;
        config.duration = flags.get_double("duration", 400.0);
        config.network_delay = delay;
        config.seed = 42 + 275604541ULL * rep;
        experiment::Simulation sim(config);
        admit.add(sim.run().admission_probability());
      }
      table.cell(admit.mean(), 4);
    }
  }
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}
