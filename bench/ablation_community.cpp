// Ablation M — community membership budget. §4: a host joins "as many
// communities as it is able to without over-allocating its spare
// resources"; every membership costs one unsolicited PLEDGE per threshold
// crossing. This sweeps the budget (0 = unlimited) for REALTOR at mid and
// overload points, reporting admission, total overhead, and the
// unsolicited-pledge share. Expected: admission saturates by a budget of
// ~8 while the crossing-pledge bill keeps growing with the budget — the
// basis for the repository default of 8.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 3));

  std::cout << "Ablation M: community membership budget (REALTOR, reps="
            << reps << ")\n";

  Table table({"budget", "admit@6", "overhead@6", "admit@8", "overhead@8",
               "pledges@8"});
  for (const std::uint32_t budget : {1u, 2u, 4u, 8u, 16u, 0u}) {
    table.row().cell(budget == 0 ? std::string("unlimited")
                                 : std::to_string(budget));
    for (const double lambda : {6.0, 8.0}) {
      OnlineStats admit, overhead, pledges;
      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        experiment::ScenarioConfig config =
            experiment::scenario_from_flags(flags);
        config.protocol_kind = proto::ProtocolKind::kRealtor;
        config.protocol.max_communities = budget;
        config.lambda = lambda;
        config.duration = flags.get_double("duration", 400.0);
        config.seed = 42 + 611953ULL * rep;
        experiment::Simulation sim(config);
        const auto& m = sim.run();
        admit.add(m.admission_probability());
        overhead.add(m.total_messages());
        pledges.add(static_cast<double>(
            m.ledger.sends(net::MessageKind::kPledge)));
      }
      table.cell(admit.mean(), 4).cell(overhead.mean(), 0);
      if (lambda == 8.0) table.cell(pledges.mean(), 0);
    }
  }
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}
