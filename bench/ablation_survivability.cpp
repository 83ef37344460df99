// Ablation B — the paper's claim 3: REALTOR "works well in highly adverse
// environments" (§1, §7). An attack wave kills a growing fraction of the
// mesh at t=100 s with a 1 s warning (grace) during which victims evacuate
// their resident components through the discovery protocol; nodes recover
// after 60 s. We report admission probability over the whole run and the
// evacuation success rate, for all five protocols.
// Expected: REALTOR and the pull schemes (which can solicit on demand and
// whose soft state expires) sustain evacuation as the attack grows, while
// the push schemes degrade — their tables hold stale entries for dead
// hosts and adaptive PUSH has no way to ask for fresh information.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"

int main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 5));
  const double lambda = flags.get_double("lambda", 6.0);

  std::cout << "Ablation B: attack survivability (lambda=" << lambda
            << ", wave at t=100s, grace 1s, outage 60s, reps=" << reps
            << ")\n";

  Table admit_table({"attacked%", "Pull-.9", "Push-1", "Push-.9", "Pull-100",
                     "REALTOR-100"});
  Table rescue_table({"attacked%", "Pull-.9", "Push-1", "Push-.9", "Pull-100",
                      "REALTOR-100"});

  for (const std::size_t count : {std::size_t{0}, std::size_t{2},
                                  std::size_t{5}, std::size_t{7},
                                  std::size_t{10}}) {
    admit_table.row().cell(static_cast<std::uint64_t>(count * 4));
    rescue_table.row().cell(static_cast<std::uint64_t>(count * 4));
    for (const auto kind :
         {proto::ProtocolKind::kPurePull, proto::ProtocolKind::kPurePush,
          proto::ProtocolKind::kAdaptivePush,
          proto::ProtocolKind::kAdaptivePull, proto::ProtocolKind::kRealtor}) {
      OnlineStats admit, rescue;
      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        experiment::ScenarioConfig config =
            experiment::scenario_from_flags(flags);
        config.lambda = lambda;
        config.duration = flags.get_double("duration", 300.0);
        config.protocol_kind = kind;
        config.seed = 42 + 104729ULL * rep;
        if (count > 0) {
          experiment::AttackWave wave;
          wave.time = 100.0;
          wave.count = count;
          wave.grace = 1.0;
          wave.outage = 60.0;
          config.attacks = {wave};
        }
        experiment::Simulation sim(config);
        const auto& m = sim.run();
        admit.add(m.admission_probability());
        rescue.add(count > 0 ? m.evacuation_success_rate() : 1.0);
      }
      admit_table.cell(admit.mean(), 4);
      rescue_table.cell(rescue.mean(), 4);
    }
  }

  std::cout << "\n-- Admission probability under attack --\n";
  admit_table.print(std::cout);
  std::cout << "\n-- Evacuation success rate (resident work rescued) --\n";
  rescue_table.print(std::cout);
  return 0;
}
