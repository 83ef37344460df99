// Reproduces Figure 5: admission probability vs task arrival rate for the
// five discovery protocols on the 5x5 mesh.
//
// Expected shape (paper §5): all curves close together; REALTOR and
// Push-.9 best; Pull-100 lowest; Push-1 in the middle.
#include <iostream>

#include "bench_common.hpp"
#include "experiment/figures.hpp"

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto config = experiment::scenario_from_flags(flags);
  const auto options = benchutil::sweep_options(flags);

  std::cout << "Figure 5: admission probability (task-size=5, q-size="
            << config.queue_capacity << ", duration=" << config.duration
            << "s, reps=" << options.replications << ")\n";
  const auto cells = experiment::run_sweep(config, options);
  experiment::emit_figure(
      "Fig 5: admission probability vs lambda",
      experiment::figure_table(
          cells,
          [](const experiment::SweepCell& c)
              -> const OnlineStats& { return c.admission_probability; },
          4, flags.get_bool("ci", false)),
      flags.get_string("csv", ""));
  return 0;
}
