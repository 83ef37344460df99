// Ablation A — the paper's claim 2: REALTOR's "overhead ... is independent
// of the network size or the system size" (§1). We scale the mesh from 3x3
// to 10x10 holding the *per-node* offered load constant and report, for
// REALTOR and pure PUSH:
//   * HELP solicitations per node per second — the scalability quantity:
//     how often a node initiates discovery, bounded by Algorithm H's
//     interval adaptation regardless of system size;
//   * PLEDGE replies per HELP — the information return, which naturally
//     grows with the pool of available hosts (each reply is borne by a
//     host with spare capacity);
//   * accounting cost units per admitted task (grows for any flooding
//     scheme since a flood costs #links).
// Expected: REALTOR's solicitation rate stays flat with size while pure
// PUSH's unconditional per-task cost grows an order of magnitude faster.
#include <iostream>

#include "bench_common.hpp"
#include "experiment/figures.hpp"
#include "experiment/simulation.hpp"

int main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const double per_node_lambda = flags.get_double("node-lambda", 0.28);
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 3));
  const double duration = flags.get_double("duration", 400.0);

  std::cout << "Ablation A: system-size independence "
            << "(per-node lambda=" << per_node_lambda
            << ", duration=" << duration << "s, reps=" << reps << ")\n";

  Table table({"mesh", "nodes", "links", "HELPs/node/s", "PLEDGEs/HELP",
               "REALTOR units/task", "Push-1 units/task", "REALTOR admit",
               "Push-1 admit"});

  for (const NodeId side : {NodeId{3}, NodeId{4}, NodeId{5}, NodeId{6},
                            NodeId{8}, NodeId{10}}) {
    const NodeId nodes = side * side;
    OnlineStats help_rate, pledges_per_help, units[2], admit[2];
    const proto::ProtocolKind kinds[2] = {proto::ProtocolKind::kRealtor,
                                          proto::ProtocolKind::kPurePush};
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      for (int k = 0; k < 2; ++k) {
        experiment::ScenarioConfig config =
            experiment::scenario_from_flags(flags);
        config.topology.width = side;
        config.topology.height = side;
        config.lambda = per_node_lambda * nodes;
        config.duration = duration;
        config.protocol_kind = kinds[k];
        // Unicast cost must track the actual topology, not the paper's
        // 5x5 constant.
        config.fixed_unicast_cost.reset();
        config.seed = 42 + 7919ULL * rep + side;
        experiment::Simulation sim(config);
        const auto& m = sim.run();
        if (kinds[k] == proto::ProtocolKind::kRealtor) {
          const auto helps = m.ledger.sends(net::MessageKind::kHelp);
          help_rate.add(static_cast<double>(helps) /
                        (static_cast<double>(nodes) * duration));
          pledges_per_help.add(
              helps > 0 ? static_cast<double>(
                              m.ledger.sends(net::MessageKind::kPledge)) /
                              static_cast<double>(helps)
                        : 0.0);
        }
        units[k].add(m.messages_per_admitted());
        admit[k].add(m.admission_probability());
      }
    }
    std::size_t links = 0;
    {
      const auto topo = net::make_mesh(side, side);
      links = topo.num_links();
    }
    table.row()
        .cell(std::to_string(side) + "x" + std::to_string(side))
        .cell(static_cast<std::uint64_t>(nodes))
        .cell(static_cast<std::uint64_t>(links))
        .cell(help_rate.mean(), 4)
        .cell(pledges_per_help.mean(), 2)
        .cell(units[0].mean(), 2)
        .cell(units[1].mean(), 2)
        .cell(admit[0].mean(), 4)
        .cell(admit[1].mean(), 4);
  }
  std::cout << '\n';
  table.print(std::cout);
  const std::string csv = flags.get_string("csv", "");
  if (!csv.empty()) table.save_csv(csv);
  return 0;
}
