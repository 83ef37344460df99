// Ablation C — Algorithm H design knobs. The paper leaves alpha and beta
// "subject to the local resource manager" (§4) and its Fig. 2 pseudocode
// admits two readings of the reward rule (see ProtocolConfig). This bench
// quantifies all three choices for REALTOR at a mid/overload point:
//   * alpha (penalty growth) x beta (reward shrink) grid,
//   * Upper_limit sweep (the "100" in REALTOR-100),
//   * reward policy: on-migration-success vs on-first-useful-pledge.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"

namespace {

struct Point {
  realtor::OnlineStats admission;
  realtor::OnlineStats overhead;
};

Point run_point(const realtor::Flags& flags,
                const realtor::proto::ProtocolConfig& protocol,
                double lambda, std::uint32_t reps) {
  using namespace realtor;
  Point point;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    experiment::ScenarioConfig config = experiment::scenario_from_flags(flags);
    config.protocol = protocol;
    config.protocol_kind = proto::ProtocolKind::kRealtor;
    config.lambda = lambda;
    config.duration = flags.get_double("duration", 400.0);
    config.seed = 42 + 15485863ULL * rep;
    experiment::Simulation sim(config);
    const auto& m = sim.run();
    point.admission.add(m.admission_probability());
    point.overhead.add(m.total_messages());
  }
  return point;
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 3));
  const double lambda = flags.get_double("lambda", 8.0);

  std::cout << "Ablation C: Algorithm H parameters (REALTOR, lambda="
            << lambda << ", reps=" << reps << ")\n";

  Table grid({"alpha", "beta", "admission", "overhead"});
  for (const double alpha : {0.25, 0.5, 1.0, 2.0}) {
    for (const double beta : {0.25, 0.5, 0.75}) {
      proto::ProtocolConfig protocol;
      protocol.alpha = alpha;
      protocol.beta = beta;
      const Point p = run_point(flags, protocol, lambda, reps);
      grid.row()
          .cell(alpha, 2)
          .cell(beta, 2)
          .cell(p.admission.mean(), 4)
          .cell(p.overhead.mean(), 0);
    }
  }
  std::cout << "\n-- alpha x beta grid --\n";
  grid.print(std::cout);

  Table upper({"Upper_limit", "admission", "overhead"});
  for (const double limit : {25.0, 50.0, 100.0, 200.0, 400.0}) {
    proto::ProtocolConfig protocol;
    protocol.help_upper_limit = limit;
    protocol.soft_state_ttl = limit;  // TTL tracks the max refresh gap
    const Point p = run_point(flags, protocol, lambda, reps);
    upper.row().cell(limit, 0).cell(p.admission.mean(), 4).cell(
        p.overhead.mean(), 0);
  }
  std::cout << "\n-- Upper_limit sweep (REALTOR-<limit>) --\n";
  upper.print(std::cout);

  Table reward({"reward policy", "admission", "overhead"});
  for (const auto policy : {proto::HelpRewardPolicy::kOnMigrationSuccess,
                            proto::HelpRewardPolicy::kOnFirstUsefulPledge}) {
    proto::ProtocolConfig protocol;
    protocol.reward_policy = policy;
    const Point p = run_point(flags, protocol, lambda, reps);
    reward.row()
        .cell(policy == proto::HelpRewardPolicy::kOnMigrationSuccess
                  ? std::string("on-migration-success")
                  : std::string("on-first-useful-pledge"))
        .cell(p.admission.mean(), 4)
        .cell(p.overhead.mean(), 0);
  }
  std::cout << "\n-- Fig. 2 reward-rule reading --\n";
  reward.print(std::cout);
  return 0;
}
