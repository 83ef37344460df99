// realtor_sim — the one-stop command line for the whole system.
//
// Runs any scenario the library supports and prints the full report:
//
//   realtor_sim                               # paper defaults, REALTOR
//   realtor_sim --protocol=Push-1 --lambda=8
//   realtor_sim --topology=torus --nodes=100 --width=10 --height=10
//   realtor_sim --attack=200:10:1:150 --sample-interval=25
//   realtor_sim --federate=5x5 --width=10 --height=10 --lambda=28
//   realtor_sim --multires --secure-fraction=0.4
//   realtor_sim --elusive=10
//   realtor_sim --trace-out=w.csv          # record the workload
//   realtor_sim --trace-in=w.csv           # replay it
//   realtor_sim --trace=run.jsonl          # structured event trace (JSONL;
//                                          # analyze with realtor_trace)
//   realtor_sim --trace=run.jsonl --trace-flush-every=256
//                                          # batch JSONL writes (K lines
//                                          # per flush; 0 = write-through)
//   realtor_sim --flight-recorder          # binary flight recorder, ring
//                                          # of 65536 records per source
//   realtor_sim --flight-recorder=4096 --flight-out=run.bin
//                                          # smaller ring, explicit dump
//                                          # path; attack waves also dump
//                                          # run.bin.attack<k>.bin
//   realtor_sim --live-metrics=live.prom   # live telemetry plane: the
//                                          # file is rewritten with a
//                                          # Prometheus-text snapshot at
//                                          # every --live-cadence (default
//                                          # 10 sim s) boundary; "-" /
//                                          # "fd:3" stream to stdout / an
//                                          # inherited descriptor
//   realtor_sim --live-metrics=live.prom
//     --alert="p99:episode_p99>5/60,storm:help_rate>3x/30"
//                                          # custom alert rules (comma
//                                          # list; see obs/live/rules.hpp
//                                          # for the grammar). Firings are
//                                          # alert_firing trace events; with
//                                          # --flight-recorder each firing
//                                          # also dumps the rings to
//                                          # <flight-out>.alert-<rule>.bin
//   realtor_sim --profile                  # hierarchical self-profiler:
//                                          # per-scope wall time tree
//   realtor_sim --profile=prof.tsv         # ... also dumped as TSV for
//                                          # realtor_trace --export=perfetto
//   realtor_sim --sweep=1,2,4,8 --reps=5   # protocol comparison sweep
//   realtor_sim --sweep=2,8 --jobs=4       # sweep on 4 worker threads
//                                          # (byte-identical output; 0 =
//                                          # one per hardware thread)
//   realtor_sim --sweep=6 --exec=fork      # warm-start execution: shared
//                                          # pre-attack prefixes simulate
//                                          # once, points finish in forked
//                                          # COW children (Linux; output
//                                          # byte-identical to --exec=thread)
//   realtor_sim --sweep=6
//     --attack-sweep="150:5:1:60;150:10:1:60;150:20:1:60"
//                                          # sweep attack schedules too:
//                                          # ';'-separated sets, each a
//                                          # comma list of t:count:grace:o
//                                          # (empty chunk = no attacks)
//   realtor_sim --sweep=6 --attack-sweep=... --plan
//                                          # dry run: print the computed
//                                          # warm-start classes and exit
//
// Sweeps + tracing: --sweep with --trace=prefix writes one JSONL file per
// (protocol, lambda, replication) run, named
// prefix.<protocol>.lambda<L>.rep<R>.jsonl — a single shared file would
// interleave records across worker threads. Use --jobs=1 if the runs must
// also execute in serial order.
//
// See experiment/cli_config.hpp for the complete flag list.
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/profile.hpp"
#include "experiment/cli_config.hpp"
#include "experiment/figures.hpp"
#include "experiment/report.hpp"
#include "experiment/simulation.hpp"
#include "experiment/sweep.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/live/live_plane.hpp"
#include "proto/factory.hpp"
#include "trace/workload_csv.hpp"

namespace {

using namespace realtor;

/// Ring capacity for --flight-recorder[=N]: a bare flag stores "true",
/// which get_int maps to the fallback — the default capacity.
std::size_t flight_capacity_from(const Flags& flags) {
  const std::int64_t n = flags.get_int(
      "flight-recorder",
      static_cast<std::int64_t>(obs::kDefaultFlightCapacity));
  return n > 0 ? static_cast<std::size_t>(n) : obs::kDefaultFlightCapacity;
}

/// --alert accepts a comma-separated rule list (the grammar itself never
/// uses commas); empty entries are dropped.
std::vector<std::string> alert_rules_from(const Flags& flags) {
  std::vector<std::string> rules;
  std::istringstream stream(flags.get_string("alert", ""));
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) rules.push_back(item);
  }
  return rules;
}

/// Sim-time cadence of live_tick boundaries when --live-metrics is on and
/// the user did not pick one explicitly.
constexpr double kDefaultLiveCadence = 10.0;

int run_single(const Flags& flags) {
  experiment::ScenarioConfig config =
      experiment::scenario_from_flags(flags);

  const std::string trace_in = flags.get_string("trace-in", "");
  const std::string trace_out = flags.get_string("trace-out", "");

  // Structured event trace (distinct from the workload CSV trace-in/out).
  // JSONL (--trace) and the binary flight recorder (--flight-recorder)
  // feed the same instrumented sites; a run uses one sink, not both.
  const std::string trace_path = flags.get_string("trace", "");
  if (!trace_path.empty() && flags.has("flight-recorder")) {
    std::cerr << "--trace and --flight-recorder are mutually exclusive "
                 "(one sink per run)\n";
    return 1;
  }
  std::optional<obs::JsonlSink> event_sink;
  std::optional<obs::FlightRecorder> flight;
  const std::string flight_out = flags.get_string("flight-out", "flight.bin");
  std::size_t attack_dumps = 0;
  if (!trace_path.empty()) {
    // A trace without time-series records is half blind; default the
    // sampler on unless the user picked an interval explicitly.
    if (!flags.has("sample-interval")) config.sample_interval = 10.0;
    event_sink.emplace(trace_path, static_cast<std::size_t>(
                                       flags.get_int("trace-flush-every", 0)));
    if (!event_sink->ok()) {
      std::cerr << "cannot write " << trace_path << '\n';
      return 1;
    }
  } else if (flags.has("flight-recorder")) {
    // The always-on mode: bounded memory, no I/O until a dump. The
    // sampler keeps its configured default (samples would crowd tight
    // rings; pass --sample-interval to add them).
    flight.emplace(flight_capacity_from(flags));
  }
  // --live-metrics[=<file|fd:N|->]: wrap whichever sink the run uses in
  // the live telemetry plane (write-through: the operator can watch the
  // target while the run executes). Works standalone too — the plane is
  // itself a sink.
  std::unique_ptr<obs::live::LivePlane> live;
  std::string live_out;
  std::size_t alert_dumps = 0;
  if (flags.has("live-metrics")) {
    live_out = flags.get_string("live-metrics", "");
    if (live_out == "true") live_out = "live.prom";  // bare flag
    if (!flags.has("live-cadence")) config.live_cadence = kDefaultLiveCadence;
    obs::live::LiveConfig live_config;
    live_config.out = live_out;
    live_config.window = flags.get_double("live-window", 30.0);
    live_config.rules = alert_rules_from(flags);
    live_config.node_count =
        experiment::build_topology(config.topology).num_nodes();
    live_config.write_through = true;
    live = std::make_unique<obs::live::LivePlane>(std::move(live_config));
    if (!live->ok()) {
      std::cerr << live->error() << '\n';
      return 1;
    }
  }
  const auto attach_tracing = [&](experiment::Simulation& sim) {
    obs::TraceSink* base = nullptr;
    if (event_sink) base = &*event_sink;
    if (flight) {
      base = &flight->ring(0);
      // Dump-on-attack: snapshot the rings right after each wave's kills
      // land, while the pre-attack window is still in memory.
      sim.set_attack_wave_listener([&](std::size_t wave, SimTime) {
        const std::string path =
            flight_out + ".attack" + std::to_string(wave) + ".bin";
        std::string error;
        if (flight->dump(path, &error)) {
          ++attack_dumps;
        } else {
          std::cerr << error << '\n';
        }
      });
    }
    if (live) {
      live->set_downstream(base);
      sim.set_trace_sink(live.get());
      if (flight) {
        // Dump-on-alert: every firing snapshots the rings while the
        // events that tripped the rule are still in memory. Re-firings
        // of one rule overwrite its dump (latest wins).
        live->set_alert_listener([&](const obs::live::AlertRule& rule,
                                     bool firing, SimTime, double) {
          if (!firing) return;
          const std::string path =
              flight_out + ".alert-" + rule.name + ".bin";
          std::string error;
          if (flight->dump(path, &error)) {
            ++alert_dumps;
          } else {
            std::cerr << error << '\n';
          }
        });
      }
    } else if (base != nullptr) {
      sim.set_trace_sink(base);
    }
  };
  // --profile[=out.tsv]: arm the self-profiler for this run; report the
  // scope tree at the end (and dump it as TSV when a path was given, for
  // realtor_trace --export=perfetto --profile=out.tsv).
  const bool profile_enabled = flags.has("profile");
  const std::string profile_out = flags.get_string("profile", "");
  if (profile_enabled) {
    obs::Profiler::instance().reset();
    obs::Profiler::instance().set_enabled(true);
  }
  const auto report_profile = [&] {
    if (!profile_enabled) return;
    obs::Profiler::instance().set_enabled(false);
    const std::vector<obs::ProfileEntry> entries =
        obs::Profiler::instance().snapshot();
    // A bare --profile stores "true" (no dump path, report only).
    if (!profile_out.empty() && profile_out != "true") {
      std::ofstream out(profile_out);
      if (out) {
        obs::write_profile_tsv(out, entries);
        std::cout << "profile: " << entries.size() << " scopes -> "
                  << profile_out << '\n';
      } else {
        std::cerr << "cannot write " << profile_out << '\n';
      }
    }
    std::cout << obs::render_profile_text(entries);
  };
  const auto report_trace = [&] {
    if (event_sink) {
      std::cout << "trace: " << event_sink->lines_written()
                << " records -> " << trace_path << '\n';
    }
    if (flight) {
      // Dump-on-exit: the tail of the run, whatever happened.
      std::string error;
      if (!flight->dump(flight_out, &error)) {
        std::cerr << error << '\n';
        return;
      }
      std::cout << "flight: " << flight->total_recorded() << " records ("
                << flight->total_dropped() << " overwritten";
      if (attack_dumps > 0) {
        std::cout << ", " << attack_dumps << " attack dumps";
      }
      if (alert_dumps > 0) {
        std::cout << ", " << alert_dumps << " alert dumps";
      }
      std::cout << ") -> " << flight_out << '\n';
    }
    if (live) {
      std::cout << "live: " << live->snapshots() << " snapshots, "
                << live->alerts_fired() << " alerts -> " << live_out << '\n';
    }
  };

  if (!trace_in.empty()) {
    const auto loaded = trace::load_csv_file(trace_in);
    if (!loaded.ok) {
      std::cerr << "trace load failed: " << loaded.error << '\n';
      return 1;
    }
    config.external_arrivals = true;
    if (!loaded.records.empty()) {
      config.duration = std::max(config.duration,
                                 loaded.records.back().arrival.time);
    }
    experiment::Simulation sim(config);
    attach_tracing(sim);
    for (const trace::TraceRecord& record : loaded.records) {
      sim.engine().schedule_at(record.arrival.time, [&sim, record] {
        sim.inject(record.arrival, record.bandwidth_share,
                   record.min_security);
      });
    }
    sim.run();
    experiment::print_report(std::cout,
                             std::string("replay of ") + trace_in, sim,
                             flags.get_bool("verbose", false));
    report_trace();
    report_profile();
    return 0;
  }

  if (!trace_out.empty()) {
    const std::size_t estimate = static_cast<std::size_t>(
        config.lambda * config.duration * 1.2 + 64.0);
    auto arrivals = sim::generate_poisson_trace(
        config.seed, config.lambda, config.mean_task_size,
        experiment::build_topology(config.topology).num_nodes(), estimate);
    while (!arrivals.empty() && arrivals.back().time > config.duration) {
      arrivals.pop_back();
    }
    if (!trace::save_csv_file(trace_out, trace::from_arrivals(arrivals))) {
      std::cerr << "cannot write " << trace_out << '\n';
      return 1;
    }
    std::cout << "recorded " << arrivals.size() << " arrivals to "
              << trace_out << '\n';
    return 0;
  }

  experiment::Simulation sim(config);
  attach_tracing(sim);
  sim.run();
  std::string title = std::string(proto::paper_label(config.protocol_kind)) +
                      " @ lambda=" + format_double(config.lambda, 1);
  experiment::print_report(std::cout, title, sim,
                           flags.get_bool("verbose", false));
  report_trace();
  report_profile();
  return 0;
}

/// The per-(lambda, attack set) comparison table attack-parameter sweeps
/// print instead of fig5–8: the figure tables key cells on (protocol,
/// lambda) alone and would silently merge distinct attack sets.
Table attack_sweep_table(const std::vector<experiment::SweepCell>& cells,
                         const experiment::SweepOptions& options) {
  std::vector<std::string> headers = {"lambda", "attack_set"};
  for (const proto::ProtocolKind kind : options.protocols) {
    headers.push_back(std::string(proto::to_string(kind)) + "_admission");
    headers.push_back(std::string(proto::to_string(kind)) + "_evac");
  }
  Table table(std::move(headers));
  const std::size_t sets =
      options.attack_sets.empty() ? 1 : options.attack_sets.size();
  for (const double lambda : options.lambdas) {
    for (std::size_t set = 0; set < sets; ++set) {
      table.row().cell(format_double(lambda, 3)).cell(
          static_cast<std::uint64_t>(set));
      for (const proto::ProtocolKind kind : options.protocols) {
        for (const experiment::SweepCell& cell : cells) {
          if (cell.kind != kind || cell.lambda != lambda ||
              cell.attack_set != set) {
            continue;
          }
          table.cell(cell.admission_probability.mean())
              .cell(cell.evacuation_success.mean());
          break;
        }
      }
    }
  }
  return table;
}

int print_warm_start_plan(const experiment::ScenarioConfig& base,
                          const experiment::SweepOptions& options) {
  const std::vector<experiment::RunId> ids = experiment::sweep_run_ids(options);
  const std::vector<experiment::ScenarioConfig> configs =
      experiment::sweep_point_configs(base, options);
  const std::vector<experiment::WarmStartClass> classes =
      experiment::plan_warm_start(configs);
  std::cout << "warm-start plan: " << configs.size() << " points, "
            << classes.size() << " classes (exec="
            << experiment::to_string(options.exec) << ", fork "
            << (experiment::fork_exec_supported() ? "supported"
                                                  : "unsupported")
            << ")\n";
  for (const experiment::WarmStartClass& cls : classes) {
    std::cout << "class " << std::hex << std::setw(16) << std::setfill('0')
              << cls.hash << std::dec << std::setfill(' ') << " members="
              << cls.members.size() << " prefix_end="
              << format_double(cls.prefix_end, 3)
              << (cls.forkable ? " forkable" : " singleton") << '\n';
    for (const std::size_t member : cls.members) {
      std::cout << "  - " << experiment::run_label(ids[member]) << '\n';
    }
  }
  return 0;
}

int run_sweep_mode(const Flags& flags) {
  experiment::ScenarioConfig base = experiment::scenario_from_flags(flags);
  if (flags.has("live-metrics") && !flags.has("live-cadence")) {
    base.live_cadence = kDefaultLiveCadence;
  }
  auto options = experiment::paper_sweep_options(
      flags.get_double_list("sweep", {2.0, 4.0, 6.0, 8.0, 10.0}),
      static_cast<std::uint32_t>(flags.get_int("reps", 3)));
  if (flags.get_bool("with-gossip", false)) {
    options.protocols.push_back(proto::ProtocolKind::kGossip);
  }
  options.jobs = static_cast<unsigned>(flags.get_int("jobs", 0));
  const std::string exec_name = flags.get_string("exec", "thread");
  const std::optional<experiment::SweepExec> exec =
      experiment::parse_exec(exec_name);
  if (!exec) {
    std::cerr << "unknown --exec value '" << exec_name
              << "' (expected thread or fork)\n";
    return 1;
  }
  options.exec = *exec;
  if (flags.has("attack-sweep")) {
    // ';'-separated attack sets, each a comma list of t:count:grace:outage
    // waves; an empty chunk is the no-attack baseline.
    std::istringstream stream(flags.get_string("attack-sweep", ""));
    std::string chunk;
    while (std::getline(stream, chunk, ';')) {
      try {
        options.attack_sets.push_back(experiment::parse_attack_waves(chunk));
      } catch (const std::invalid_argument& e) {
        std::cerr << "realtor_sim: --attack-sweep set "
                  << options.attack_sets.size() << ": " << e.what() << '\n';
        return 1;
      }
    }
    if (options.attack_sets.empty()) {
      options.attack_sets.emplace_back();
    }
  }
  if (flags.get_bool("plan", false)) {
    return print_warm_start_plan(base, options);
  }
  // A sweep cannot funnel every run into one trace file without
  // interleaving records across worker threads, so --trace (JSONL) and
  // --flight-recorder (binary rings) fan out to one suffixed file per
  // (protocol, lambda, replication) run. Use --jobs=1 if you additionally
  // need the runs traced in serial order.
  experiment::RunSinkOptions sink_options;
  sink_options.jsonl_prefix = flags.get_string("trace", "");
  sink_options.jsonl_flush_every =
      static_cast<std::size_t>(flags.get_int("trace-flush-every", 0));
  if (flags.has("flight-recorder")) {
    sink_options.flight_prefix = flags.get_string("flight-out", "flight");
    sink_options.flight_capacity = flight_capacity_from(flags);
  }
  sink_options.attack_suffix = options.attack_sets.size() > 1;
  if (!sink_options.jsonl_prefix.empty() &&
      !sink_options.flight_prefix.empty()) {
    std::cerr << "--trace and --flight-recorder are mutually exclusive in "
                 "sweep mode (one sink per run)\n";
    return 1;
  }
  // --live-metrics=<prefix> in sweep mode: one buffered exposition history
  // per run (prefix.<proto>.lambda<L>[.att<K>].rep<R>.prom), wrapping the
  // run's JSONL/flight sink when one is armed. Byte-identical across
  // --jobs values and --exec modes for a fixed seed.
  if (flags.has("live-metrics")) {
    sink_options.live_prefix = flags.get_string("live-metrics", "");
    if (sink_options.live_prefix == "true") sink_options.live_prefix = "live";
    sink_options.live_rules = alert_rules_from(flags);
    sink_options.live_window = flags.get_double("live-window", 30.0);
    sink_options.live_nodes =
        experiment::build_topology(base.topology).num_nodes();
  }
  options.make_trace_sink =
      experiment::make_run_sink_factory(std::move(sink_options));
  const auto cells = experiment::run_sweep(base, options);
  if (options.attack_sets.size() > 1) {
    experiment::emit_figure("attack-parameter sweep",
                            attack_sweep_table(cells, options));
    return 0;
  }
  experiment::emit_figure("admission probability",
                          experiment::fig5_admission_probability(cells));
  experiment::emit_figure("message overhead",
                          experiment::fig6_message_overhead(cells));
  experiment::emit_figure("cost per admitted task",
                          experiment::fig7_cost_per_admitted(cells));
  experiment::emit_figure("migration rate",
                          experiment::fig8_migration_rate(cells));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    std::cout <<
        "realtor_sim — run REALTOR discovery scenarios\n"
        "  (see the header of tools/realtor_sim.cpp and\n"
        "   src/experiment/cli_config.hpp for all flags)\n";
    return 0;
  }
  try {
    if (flags.has("sweep")) {
      return run_sweep_mode(flags);
    }
    return run_single(flags);
  } catch (const std::exception& e) {
    std::cerr << "realtor_sim: " << e.what() << '\n';
    return 1;
  }
}
