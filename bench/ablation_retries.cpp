// Ablation E — migration retry budget. §5 restricts the experiments to a
// one-time migration try; §3 describes the full behaviour ("migration is
// aborted and the next node in REALTOR's list is tried"). This sweeps the
// retry budget for REALTOR and adaptive PUSH under overload.
// Expected: extra tries buy admission probability at the price of extra
// negotiation traffic, with diminishing returns after 2-3 tries.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 3));

  std::cout << "Ablation E: migration retry budget (reps=" << reps << ")\n";

  Table table({"tries", "protocol", "admit@8", "admit@10", "negotiation@10",
               "migr-rate@10"});
  for (const std::uint32_t tries : {1u, 2u, 3u, 5u}) {
    for (const auto kind : {proto::ProtocolKind::kRealtor,
                            proto::ProtocolKind::kAdaptivePush}) {
      OnlineStats admit8, admit10, nego10, migr10;
      for (const double lambda : {8.0, 10.0}) {
        for (std::uint32_t rep = 0; rep < reps; ++rep) {
          experiment::ScenarioConfig config =
              experiment::scenario_from_flags(flags);
          config.migration.max_tries = tries;
          config.protocol_kind = kind;
          config.lambda = lambda;
          config.duration = flags.get_double("duration", 400.0);
          config.seed = 42 + 49979687ULL * rep;
          experiment::Simulation sim(config);
          const auto& m = sim.run();
          if (lambda == 8.0) {
            admit8.add(m.admission_probability());
          } else {
            admit10.add(m.admission_probability());
            nego10.add(m.ledger.cost(net::MessageKind::kNegotiation));
            migr10.add(m.migration_rate());
          }
        }
      }
      table.row()
          .cell(static_cast<std::uint64_t>(tries))
          .cell(std::string(proto::paper_label(kind)))
          .cell(admit8.mean(), 4)
          .cell(admit10.mean(), 4)
          .cell(nego10.mean(), 0)
          .cell(migr10.mean(), 4);
    }
  }
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}
