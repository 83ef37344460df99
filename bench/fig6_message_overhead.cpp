// Reproduces Figure 6: total number of message exchanges vs arrival rate.
//
// Expected shape (paper §5): Push-1 highest (flat, wasteful at light
// load); Pull-.9 grows roughly linearly with load; Pull-100 lowest;
// REALTOR moderate — slightly above Push-.9, about a third of Push-1.
#include <iostream>

#include "bench_common.hpp"
#include "experiment/figures.hpp"

int main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto config = experiment::scenario_from_flags(flags);
  const auto options = benchutil::sweep_options(flags);

  std::cout << "Figure 6: number of messages exchanged (task-size=5, q-size="
            << config.queue_capacity << ", push interval=1, window=100)\n";
  const auto cells = experiment::run_sweep(config, options);
  experiment::emit_figure("Fig 6: total messages vs lambda",
                          experiment::fig6_message_overhead(cells),
                          flags.get_string("csv", ""));
  return 0;
}
