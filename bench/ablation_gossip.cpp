// Ablation I — REALTOR vs a modern gossip baseline.
//
// Not in the paper: push-pull anti-entropy gossip (SWIM / memberlist /
// Serf-style) became the standard way to disseminate membership and load
// state after 2003. This bench situates REALTOR against it on the paper's
// own workload: admission probability, migration rate, and message
// overhead across the arrival-rate sweep, plus a fanout sensitivity table.
// Expected: gossip is competitive on admission (its information converges
// in O(log N) rounds) but, like pure PUSH, pays a load-independent
// standing cost; REALTOR's demand-driven traffic undercuts it at light
// load and matches it under overload.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"

int main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 3));

  std::cout << "Ablation I: REALTOR vs push-pull gossip (reps=" << reps
            << ")\n";

  Table sweep({"lambda", "REALTOR admit", "Gossip admit", "REALTOR overhead",
               "Gossip overhead", "REALTOR migr", "Gossip migr"});
  for (const double lambda :
       flags.get_double_list("lambdas", {2.0, 4.0, 6.0, 8.0, 10.0})) {
    OnlineStats admit[2], overhead[2], migr[2];
    const proto::ProtocolKind kinds[2] = {proto::ProtocolKind::kRealtor,
                                          proto::ProtocolKind::kGossip};
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      for (int k = 0; k < 2; ++k) {
        experiment::ScenarioConfig config =
            experiment::scenario_from_flags(flags);
        config.protocol_kind = kinds[k];
        config.lambda = lambda;
        config.duration = flags.get_double("duration", 400.0);
        config.seed = 42 + 179424673ULL * rep;
        experiment::Simulation sim(config);
        const auto& m = sim.run();
        admit[k].add(m.admission_probability());
        overhead[k].add(m.total_messages());
        migr[k].add(m.migration_rate());
      }
    }
    sweep.row()
        .cell(lambda, 1)
        .cell(admit[0].mean(), 4)
        .cell(admit[1].mean(), 4)
        .cell(overhead[0].mean(), 0)
        .cell(overhead[1].mean(), 0)
        .cell(migr[0].mean(), 4)
        .cell(migr[1].mean(), 4);
  }
  std::cout << '\n';
  sweep.print(std::cout);

  Table fanout({"fanout", "interval", "admit@8", "overhead@8"});
  for (const std::uint32_t f : {1u, 2u, 4u}) {
    for (const double interval : {0.5, 1.0, 2.0}) {
      OnlineStats admit, overhead;
      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        experiment::ScenarioConfig config =
            experiment::scenario_from_flags(flags);
        config.protocol_kind = proto::ProtocolKind::kGossip;
        config.protocol.gossip_fanout = f;
        config.protocol.gossip_interval = interval;
        config.lambda = 8.0;
        config.duration = flags.get_double("duration", 400.0);
        config.seed = 42 + 179424673ULL * rep;
        experiment::Simulation sim(config);
        const auto& m = sim.run();
        admit.add(m.admission_probability());
        overhead.add(m.total_messages());
      }
      fanout.row()
          .cell(static_cast<std::uint64_t>(f))
          .cell(interval, 1)
          .cell(admit.mean(), 4)
          .cell(overhead.mean(), 0);
    }
  }
  std::cout << "\n-- gossip fanout / interval sensitivity --\n";
  fanout.print(std::cout);
  return 0;
}
