// Ablation G — inter-neighbor-group discovery (§7 future work: "extend
// this work to inter-neighbor-group resource discovery and allocation for
// very large distributed dynamic real-time systems").
//
// Large meshes at fixed per-node load, REALTOR flat (floods reach the
// whole overlay) vs federated (floods stay inside 5x5 neighbor groups;
// a node whose group is dry escalates through the gateway into adjacent
// groups). Expected: the federated overlay cuts the discovery bill by an
// amount that grows with system size, at near-equal admission probability
// — the property that makes the protocol viable for "very large" systems.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 3));
  const double per_node_lambda = flags.get_double("node-lambda", 0.32);
  const double duration = flags.get_double("duration", 400.0);

  std::cout << "Ablation G: inter-group (federated) discovery "
            << "(REALTOR, per-node lambda=" << per_node_lambda
            << ", 5x5 groups, duration=" << duration << "s, reps=" << reps
            << ")\n";

  Table table({"mesh", "groups", "flat admit", "fed admit", "flat overhead",
               "fed overhead", "saving", "escalations"});
  for (const NodeId side : {NodeId{10}, NodeId{15}, NodeId{20}}) {
    OnlineStats admit[2], overhead[2], escalations;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      for (int fed = 0; fed < 2; ++fed) {
        experiment::ScenarioConfig config =
            experiment::scenario_from_flags(flags);
        config.topology.width = side;
        config.topology.height = side;
        config.lambda = per_node_lambda * side * side;
        config.duration = duration;
        config.protocol_kind = proto::ProtocolKind::kRealtor;
        config.fixed_unicast_cost.reset();
        config.seed = 42 + 472882027ULL * rep + side;
        if (fed == 1) {
          config.federation.enabled = true;
          config.federation.block_width = 5;
          config.federation.block_height = 5;
        }
        experiment::Simulation sim(config);
        const auto& m = sim.run();
        admit[fed].add(m.admission_probability());
        overhead[fed].add(m.total_messages());
        if (fed == 1) {
          escalations.add(static_cast<double>(m.escalations));
        }
      }
    }
    const double saving =
        overhead[0].mean() > 0.0
            ? 1.0 - overhead[1].mean() / overhead[0].mean()
            : 0.0;
    table.row()
        .cell(std::to_string(side) + "x" + std::to_string(side))
        .cell(static_cast<std::uint64_t>((side / 5) * (side / 5)))
        .cell(admit[0].mean(), 4)
        .cell(admit[1].mean(), 4)
        .cell(overhead[0].mean(), 0)
        .cell(overhead[1].mean(), 0)
        .cell(saving, 3)
        .cell(escalations.mean(), 0);
  }
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}
