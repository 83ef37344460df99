// Reproduces Figure 8: migration rate per admitted task.
//
// Expected shape (paper §5): REALTOR highest, peaking near 30% in the
// overload region and then declining as Upper_limit suppresses HELP;
// Push-1 rises until saturation and then flattens; the pull-based schemes
// lowest (their information is stale by the time a migration is needed).
#include <iostream>

#include "bench_common.hpp"
#include "experiment/figures.hpp"

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto config = experiment::scenario_from_flags(flags);
  const auto options = benchutil::sweep_options(flags);

  std::cout << "Figure 8: migration rate per admitted task\n";
  const auto cells = experiment::run_sweep(config, options);
  experiment::emit_figure("Fig 8: migration rate vs lambda",
                          experiment::fig8_migration_rate(cells),
                          flags.get_string("csv", ""));
  return 0;
}
