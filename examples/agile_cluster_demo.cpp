// Agile Objects cluster demo: the *threaded* runtime from §6 — one reactor
// thread per host, REALTOR over multicast/datagram channels, a synchronous
// admission RPC, migratable timer components and a naming service —
// running time-compressed on this machine.
//
//   ./agile_cluster_demo [--hosts=20] [--lambda=5] [--duration=60]
//                        [--loss=0.0] [--compression=0.005]
//                        [--attack=<time>:<victim>[:<outage>]]
//                        [--trace=run.jsonl [--trace-flush-every=256]]
//                        [--flight-recorder[=N] [--flight-out=path]]
//                        [--live-metrics[=live.prom] [--live-cadence=1]
//                         [--live-window=10]
//                         [--alert=rule,rule,...]]
//
// Tracing: --trace shares one thread-safe JSONL sink across all reactor
// threads; --flight-recorder gives every host its own binary ring (one
// source per host in the dump) and dumps on exit, plus right after each
// --attack kill. Analyze either output with realtor_trace.
//
// --live-metrics feeds every host's trace events to the simulation's live
// plane (obs::live::LivePlane): the same windows, alert rules and
// exposition format as realtor_sim --live-metrics. The workload driver
// ticks it every --live-cadence model seconds and once more after the
// reactors join, rewriting the .prom file with the latest snapshot
// (watch it with `watch cat live.prom`).
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "agile/cluster.hpp"
#include "common/flags.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/jsonl_sink.hpp"

int main(int argc, char** argv) {
  using namespace realtor;
  const Flags flags(argc, argv);

  agile::ClusterConfig config;
  config.num_hosts = static_cast<NodeId>(flags.get_int("hosts", 20));
  config.queue_capacity = flags.get_double("queue", 50.0);
  config.lambda = flags.get_double("lambda", 5.0);
  config.model_duration = flags.get_double("duration", 60.0);
  config.time_compression = flags.get_double("compression", 0.005);
  config.loss_probability = flags.get_double("loss", 0.0);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  // --attack=time:victim[:outage] — driver stops (and optionally
  // restarts) one host mid-run.
  const std::string attack = flags.get_string("attack", "");
  if (!attack.empty()) {
    agile::ClusterConfig::Attack wave;
    unsigned victim = 0;
    if (std::sscanf(attack.c_str(), "%lf:%u:%lf", &wave.time, &victim,
                    &wave.outage) >= 2) {
      wave.victim = static_cast<NodeId>(victim);
      config.attacks.push_back(wave);
    } else {
      std::cerr << "bad --attack (want time:victim[:outage]): " << attack
                << '\n';
      return 1;
    }
  }

  // Tracing: one shared JSONL sink (thread-safe) or per-host flight
  // rings; a run uses one of them.
  const std::string trace_path = flags.get_string("trace", "");
  if (!trace_path.empty() && flags.has("flight-recorder")) {
    std::cerr << "--trace and --flight-recorder are mutually exclusive\n";
    return 1;
  }
  std::optional<obs::JsonlSink> jsonl;
  std::optional<obs::FlightRecorder> flight;
  const std::string flight_out =
      flags.get_string("flight-out", "agile_flight.bin");
  std::size_t attack_dumps = 0;
  if (!trace_path.empty()) {
    jsonl.emplace(trace_path, static_cast<std::size_t>(
                                  flags.get_int("trace-flush-every", 0)));
    if (!jsonl->ok()) {
      std::cerr << "cannot write " << trace_path << '\n';
      return 1;
    }
    config.trace_sink_factory = [&jsonl](NodeId) -> obs::TraceSink* {
      return &*jsonl;
    };
  } else if (flags.has("flight-recorder")) {
    const std::int64_t n = flags.get_int(
        "flight-recorder",
        static_cast<std::int64_t>(obs::kDefaultFlightCapacity));
    flight.emplace(n > 0 ? static_cast<std::size_t>(n)
                         : obs::kDefaultFlightCapacity);
    // Rings are created here in the Cluster constructor (single-threaded);
    // thread_safe=true because reactor threads write while the driver
    // dumps on attack.
    config.trace_sink_factory = [&flight](NodeId id) -> obs::TraceSink* {
      return &flight->ring(id, /*thread_safe=*/true);
    };
    config.on_attack = [&](std::size_t index, SimTime) {
      const std::string path =
          flight_out + ".attack" + std::to_string(index) + ".bin";
      std::string error;
      if (flight->dump(path, &error)) {
        ++attack_dumps;
      } else {
        std::cerr << error << '\n';
      }
    };
  }

  std::string live_out;
  if (flags.has("live-metrics")) {
    live_out = flags.get_string("live-metrics", "live.prom");
    if (live_out == "true") live_out = "live.prom";
    obs::live::LiveConfig live;
    live.out = live_out;
    live.window = flags.get_double("live-window", 10.0);
    live.write_through = true;
    const std::string rules = flags.get_string("alert", "");
    std::size_t start = 0;
    while (start < rules.size()) {
      std::size_t comma = rules.find(',', start);
      if (comma == std::string::npos) comma = rules.size();
      if (comma > start) {
        live.rules.push_back(rules.substr(start, comma - start));
      }
      start = comma + 1;
    }
    config.live = std::move(live);
    config.live_cadence = flags.get_double("live-cadence", 1.0);
  }

  std::cout << "Spinning up " << config.num_hosts
            << " host reactors (queue " << config.queue_capacity
            << "s, REALTOR, datagram loss " << config.loss_probability
            << ")...\n"
            << "Replaying " << config.model_duration
            << " model-seconds of Poisson(" << config.lambda
            << ") arrivals at " << 1.0 / config.time_compression
            << "x real time.\n\n";

  agile::Cluster cluster(config);
  if (cluster.live() && !cluster.live()->ok()) {
    std::cerr << cluster.live()->error() << '\n';
    return 1;
  }
  const agile::ClusterMetrics m = cluster.run();

  std::cout << "arrivals processed      " << m.arrivals_processed << '\n'
            << "admitted locally        " << m.admitted_local << '\n'
            << "admitted via migration  " << m.admitted_migrated << '\n'
            << "rejected                " << m.rejected << '\n'
            << "admission probability   " << m.admission_probability() << '\n'
            << "components completed    " << m.completions << '\n'
            << "CUS/EDF deadline misses " << m.deadline_misses << '\n'
            << "HELP multicasts         " << m.helps << '\n'
            << "PLEDGE datagrams        " << m.pledges << '\n'
            << "admission RPC calls     " << m.negotiations << '\n'
            << "naming service updates  " << m.naming_updates << '\n'
            << "datagrams sent/dropped  " << m.datagrams_sent << "/"
            << m.datagrams_dropped << '\n';

  if (jsonl) {
    jsonl->flush();
    std::cout << "trace: " << jsonl->lines_written() << " records -> "
              << trace_path << '\n';
  }
  if (flight) {
    std::string error;
    if (!flight->dump(flight_out, &error)) {
      std::cerr << error << '\n';
    } else {
      std::cout << "flight: " << flight->total_recorded() << " records in "
                << flight->ring_count() << " rings ("
                << flight->total_dropped() << " overwritten";
      if (attack_dumps > 0) {
        std::cout << ", " << attack_dumps << " attack dumps";
      }
      std::cout << ") -> " << flight_out << '\n';
    }
  }

  if (const obs::live::LivePlane* live = cluster.live()) {
    std::cout << "live: " << live->snapshots() << " snapshots, "
              << live->alerts_fired() << " alerts -> " << live_out << '\n';
  }

  std::cout << "\nTry --loss=0.2 to watch the soft-state protocol shrug off "
               "a lossy network,\nor --lambda=9 to push the cluster into "
               "overload.\n";
  return 0;
}
