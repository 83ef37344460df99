// Reproduces Figure 9: *measured* admission probability of the REALTOR
// implementation inside the Agile Objects runtime.
//
// Paper §6: 20 Linux hosts, queue_size = 50, tasks are timers waiting to
// expire, REALTOR over IP multicast (HELP) + UDP (PLEDGE), TCP admission
// negotiation. Our substitute is the in-process threaded cluster
// (src/agile): one reactor thread per host, lossy datagram channels, a
// synchronous admission RPC, time-compressed so the sweep finishes in
// seconds. Expected shape: the same declining curve as Fig. 5's REALTOR,
// shifted by the smaller cluster and queue.
#include <iostream>

#include "agile/cluster.hpp"
#include "bench_common.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "proto/factory.hpp"

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto lambdas = flags.get_double_list(
      "lambdas", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 3));
  const double duration = flags.get_double("duration", 60.0);
  const double compression = flags.get_double("compression", 0.003);
  const auto hosts = static_cast<NodeId>(flags.get_int("hosts", 20));
  const double queue = flags.get_double("queue", 50.0);
  const double loss = flags.get_double("loss", 0.0);

  std::cout << "Figure 9: measured admission probability (threaded Agile "
               "Objects cluster)\n"
            << "hosts=" << hosts << " queue=" << queue
            << " task_size=5 duration=" << duration
            << "s x" << reps << " reps, time compression " << compression
            << " wall-s per model-s\n";

  Table table({"lambda", "REALTOR (measured)", "+-95%", "migration-rate",
               "helps", "pledges"});
  for (const double lambda : lambdas) {
    OnlineStats admission, migration;
    std::uint64_t helps = 0, pledges = 0;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      agile::ClusterConfig config;
      config.num_hosts = hosts;
      config.queue_capacity = queue;
      config.lambda = lambda;
      config.model_duration = duration;
      config.time_compression = compression;
      config.loss_probability = loss;
      config.seed = 42 + 1000003ULL * rep +
                    static_cast<std::uint64_t>(lambda * 1e6);
      agile::Cluster cluster(config);
      const agile::ClusterMetrics m = cluster.run();
      admission.add(m.admission_probability());
      migration.add(m.migration_rate());
      helps += m.helps;
      pledges += m.pledges;
    }
    table.row()
        .cell(lambda, 1)
        .cell(admission.mean(), 4)
        .cell(admission.ci95_halfwidth(), 4)
        .cell(migration.mean(), 4)
        .cell(helps)
        .cell(pledges);
  }
  std::cout << '\n';
  table.print(std::cout);
  const std::string csv = flags.get_string("csv", "");
  if (!csv.empty() && table.save_csv(csv)) {
    std::cout << "(csv: " << csv << ")\n";
  }

  if (flags.get_bool("all-protocols", true)) {
    // Extension beyond the paper's early measurement: the same cluster
    // runs every discovery scheme, making Fig. 9 a *measured* protocol
    // comparison (same shape expectations as the simulated Fig. 5).
    std::cout << "\nMeasured protocol comparison (admission probability):\n";
    Table compare({"lambda", "Pull-.9", "Push-1", "Push-.9", "Pull-100",
                   "REALTOR-100"});
    const auto compare_reps =
        static_cast<std::uint32_t>(flags.get_int("compare-reps", 2));
    for (const double lambda : lambdas) {
      compare.row().cell(lambda, 1);
      for (const auto kind : proto::kAllProtocolKinds) {
        OnlineStats admission;
        for (std::uint32_t rep = 0; rep < compare_reps; ++rep) {
          agile::ClusterConfig config;
          config.num_hosts = hosts;
          config.queue_capacity = queue;
          config.lambda = lambda;
          config.model_duration = duration;
          config.time_compression = compression;
          config.loss_probability = loss;
          config.discovery = kind;
          config.seed = 42 + 1000003ULL * rep +
                        static_cast<std::uint64_t>(lambda * 1e6);
          agile::Cluster cluster(config);
          admission.add(cluster.run().admission_probability());
        }
        compare.cell(admission.mean(), 4);
      }
    }
    compare.print(std::cout);
  }
  return 0;
}
