// Ablation F — multi-resource discovery (paper §5 footnote 3: "More
// general resource scenarios such as network bandwidth, current security
// level, etc., would give similar results"). We run the Fig. 5 sweep for
// REALTOR in three configurations:
//   * CPU only (the paper's model),
//   * CPU + light NIC shares + security levels (footnote regime), and
//   * CPU + heavy NIC shares (bandwidth becomes the binding resource).
// Expected: the light configuration tracks the CPU-only curve closely
// (validating the footnote); the heavy one shifts the knee left because
// the NIC saturates before the CPU queue does.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"

int bench_main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);
  const auto reps = static_cast<std::uint32_t>(flags.get_int("reps", 3));

  std::cout << "Ablation F: multi-resource discovery (REALTOR, reps=" << reps
            << ")\n";

  struct Variant {
    const char* name;
    bool enabled;
    double mean_bw;
    double secure_fraction;
  };
  const Variant variants[] = {
      {"CPU-only", false, 0.0, 0.0},
      {"CPU+NIC+security (light)", true, 0.03, 0.2},
      {"CPU+NIC (heavy)", true, 0.20, 0.0},
  };

  Table table({"lambda", "CPU-only", "light multi", "heavy NIC",
               "migr CPU-only", "migr light", "migr heavy"});
  for (const double lambda :
       flags.get_double_list("lambdas", {4.0, 6.0, 8.0, 10.0})) {
    OnlineStats admit[3], migrate[3];
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      for (int v = 0; v < 3; ++v) {
        experiment::ScenarioConfig config =
            experiment::scenario_from_flags(flags);
        config.protocol_kind = proto::ProtocolKind::kRealtor;
        config.lambda = lambda;
        config.duration = flags.get_double("duration", 400.0);
        config.seed = 42 + 86028157ULL * rep;
        config.multi_resource.enabled = variants[v].enabled;
        config.multi_resource.mean_bandwidth_share = variants[v].mean_bw;
        config.multi_resource.secure_task_fraction =
            variants[v].secure_fraction;
        experiment::Simulation sim(config);
        const auto& m = sim.run();
        admit[v].add(m.admission_probability());
        migrate[v].add(m.migration_rate());
      }
    }
    table.row()
        .cell(lambda, 1)
        .cell(admit[0].mean(), 4)
        .cell(admit[1].mean(), 4)
        .cell(admit[2].mean(), 4)
        .cell(migrate[0].mean(), 4)
        .cell(migrate[1].mean(), 4)
        .cell(migrate[2].mean(), 4);
  }
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}
