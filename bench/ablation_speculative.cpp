// Ablation H — speculative migration (paper §3: "the migration of the
// component can happen concurrently to the negotiation among the Admission
// Controls (speculative migration), thus enabling very low-latency
// migration").
//
// Runs the threaded Agile cluster under overload with a one-way network
// delay d and compares the sequential negotiation path (request + reply +
// transfer, ~3d decision-to-registered) against the speculative path
// (state ships with the request, ~1d), plus the price of speculation:
// transfers that arrive at a refusing host are wasted.
#include <iostream>

#include "agile/cluster.hpp"
#include "bench_common.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const double lambda = flags.get_double("lambda", 6.0);

  std::cout << "Ablation H: speculative vs sequential migration latency "
            << "(4 hosts, queue 20s, lambda=" << lambda << ")\n";

  Table table({"delay (model s)", "mode", "latency (model s)", "x delay",
               "admission", "spec misses"});
  for (const double delay : flags.get_double_list("delays", {0.1, 0.3, 0.6})) {
    for (const bool speculative : {false, true}) {
      agile::ClusterConfig config;
      config.num_hosts = 4;
      config.queue_capacity = 20.0;
      config.lambda = lambda;
      config.mean_task_size = 2.0;
      config.model_duration = flags.get_double("duration", 90.0);
      config.time_compression = flags.get_double("compression", 0.01);
      config.network_delay = delay;
      config.speculative_migration = speculative;
      config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
      agile::Cluster cluster(config);
      const agile::ClusterMetrics m = cluster.run();
      const double latency = m.mean_migration_latency();
      table.row()
          .cell(delay, 2)
          .cell(std::string(speculative ? "speculative" : "sequential"))
          .cell(latency, 4)
          .cell(delay > 0.0 ? latency / delay : 0.0, 2)
          .cell(m.admission_probability(), 4)
          .cell(m.speculative_rejected);
    }
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\n(latency = decision at the origin to component registered "
               "at the destination,\nmeasured in model time; 'x delay' near "
               "3 = sequential round trip, near 1 = speculative)\n";
  return 0;
}
