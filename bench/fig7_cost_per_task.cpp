// Reproduces Figure 7: communication cost per admitted task.
//
// Expected shape (paper §5): Push-1 around 200 messages per admitted task
// at lambda=5 while all others stay under ~50; REALTOR and Push-.9 decline
// as the system saturates; REALTOR shows a bump where occupancy oscillates
// around the threshold (near lambda=6 in the paper).
#include <iostream>

#include "bench_common.hpp"
#include "experiment/figures.hpp"

int main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto config = experiment::scenario_from_flags(flags);
  const auto options = benchutil::sweep_options(flags);

  std::cout << "Figure 7: message cost per admitted task\n";
  const auto cells = experiment::run_sweep(config, options);
  experiment::emit_figure("Fig 7: messages per admitted task vs lambda",
                          experiment::fig7_cost_per_admitted(cells),
                          flags.get_string("csv", ""));
  return 0;
}
