// perf_regression — machine-readable substrate benchmarks plus the
// serial-vs-parallel correctness gate.
//
// Two artifacts seed the repo's performance trajectory:
//
//   BENCH_kernel.json  engine hot-path throughput: schedule+fire,
//                      schedule+cancel, and the Algorithm-H timer-churn
//                      pattern (ops/s each);
//   BENCH_sweep.json   the full Fig-6 sweep wall clock, serial (--jobs=1)
//                      versus parallel (--jobs=N), the speedup, and
//                      whether the two legs produced byte-identical
//                      figure tables + CSV. Plus a "warm_start" section:
//                      an attack-parameter sweep (identical pre-attack
//                      prefixes, divergent waves) timed under
//                      --exec=thread and --exec=fork, the fork speedup,
//                      and whether the two exec modes produced
//                      byte-identical cell aggregates.
//   BENCH_scale.json   the flood fan-out + attack-churn scale matrix:
//                      mesh/torus/random topologies at N in {25, 400,
//                      2500, 10000}, each cell a PUSH-flood-heavy run
//                      (~--scale-floods floods regardless of N) under two
//                      kill/restore churn waves. The N=25 cells are gated
//                      on byte-identical metrics against a reference
//                      captured before the zero-copy transport landed.
//   BENCH_obs.json     the tracing-overhead matrix: one attack-heavy
//                      REALTOR run at N=2500 timed with tracing off, with
//                      the binary flight recorder, with a JSONL sink, and
//                      with the live telemetry plane (min of --obs-reps
//                      each). The flight and live legs are budget-gated:
//                      each one's overhead over the untraced leg must
//                      stay within --obs-budget (default 5%) — the
//                      property that makes "always-on" honest. All legs
//                      must also produce byte-identical run metrics
//                      (tracing never changes decisions).
//   BENCH_trace.json   the trace-ingest matrix: a deterministic synthetic
//                      10k-node JSONL trace of --trace-mb megabytes read
//                      two ways — the zero-copy EventStore serially and
//                      with --trace-jobs parse shards — each leg then
//                      running the two heaviest analyses (--scorecard and
//                      --check) so the artifact records end-to-end wall
//                      time, not just parse time. Gated on both legs
//                      agreeing byte-for-byte (event-stream fingerprint,
//                      scorecard JSON, invariant-violation list,
//                      malformed-line accounting) and, at --trace-mb=32,
//                      on an embedded reference of the same four values
//                      (exit 2 on divergence).
//
// Flags (besides everything bench_common.hpp documents):
//   --kernel-out=PATH   default BENCH_kernel.json
//   --sweep-out=PATH    default BENCH_sweep.json
//   --scale-out=PATH    default BENCH_scale.json
//   --obs-out=PATH      default BENCH_obs.json
//   --skip-kernel / --skip-sweep / --skip-scale / --skip-obs
//   --skip-warm         skip the warm-start fork-vs-thread section
//   --warm-lambda=L     arrival rate of the attack sweep (default 6)
//   --warm-duration=T   simulated seconds per warm-start run (default 300;
//                       waves land at 0.8 T, so ~80% of each run is the
//                       shared prefix the fork executor snapshots)
//   --warm-sets=K       attack schedules swept (default 8)
//   --warm-reps=R       replications per cell (default 2)
//   --min-time=S        minimum seconds per kernel measurement (default 0.4)
//   --scale-n=25,400,2500,10000   node counts for the scale matrix
//   --scale-topos=mesh,torus,random
//   --scale-floods=N    flood budget per cell (default 5000); the metric
//                       reference only gates the default budget
//   --scale-print-reference       print fingerprint lines for embedding
//   --obs-n=N           node count for the overhead matrix (default 2500)
//   --obs-reps=R        timed repetitions per leg (default 7; min wins;
//                       legs are interleaved rep by rep so machine noise
//                       hits all of them alike)
//   --obs-budget=F      flight-recorder overhead budget (default 0.05)
//   --obs-duration=T    simulated seconds for the matrix run (default 10)
//   --obs-wave=K        victims in the matrix's attack wave (default N/50)
//   --obs-capacity=N    flight-ring capacity for the matrix (default
//                       kDefaultFlightCapacity)
//   --obs-cost=MODE     exact (default) | average | fixed4 — unicast cost
//                       model for the matrix scenario; trace density is
//                       identical across modes, only baseline work moves
//   --obs-null          add a do-nothing-sink leg (emission-site floor)
//   --trace-out=PATH    default BENCH_trace.json
//   --skip-trace        skip the trace-ingest matrix
//   --trace-mb=M        synthetic trace size in MiB (default 100); the
//                       embedded reference only gates M=32
//   --trace-jobs=N      parse shards for the parallel leg (default 4;
//                       0 = one per hardware thread)
//   --trace-reps=R      timed repetitions per leg (default 3; min wins)
//   --trace-input=PATH  ingest an existing trace instead of generating
//                       one (the serial-vs-sharded gate still runs)
//   --trace-keep        keep the generated synthetic trace on disk
//
// Exit status is nonzero when the parallel sweep output differs from the
// serial output in any byte, when an N=25 scale cell's metrics diverge
// from the pre-change reference, when a traced obs leg's metrics diverge
// from the untraced leg (exit 2), when a trace-ingest leg diverges from
// the other or from the embedded reference in any gated byte (exit 2),
// or when the flight-recorder overhead exceeds its budget (exit 3) — CI
// runs this as a determinism gate plus the one timing gate the flight
// recorder's contract requires.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <locale>
#include <memory>
#include <sstream>
#include <string_view>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/format.hpp"
#include "common/parallel.hpp"
#include "common/profile.hpp"
#include "experiment/figures.hpp"
#include "experiment/simulation.hpp"
#include "experiment/sweep.hpp"
#include "experiment/warm_start.hpp"
#include "obs/event_store.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/live/live_plane.hpp"
#include "obs/scorecard.hpp"
#include "proto/factory.hpp"
#include "sim/engine.hpp"

namespace {

using namespace realtor;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The CPU frequency governor ("performance", "powersave", ...), or
/// "unknown" where sysfs does not expose one (containers, macOS).
std::string cpu_governor() {
  std::ifstream gov(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string name;
  if (gov && std::getline(gov, name) && !name.empty()) return name;
  return "unknown";
}

/// Machine context at the top of every BENCH_*.json: wall-clock numbers
/// are only comparable across artifacts produced on the same core count
/// and governor setting, so every header records both.
void write_machine_header(std::ostream& out) {
  out << "  \"hw_threads\": " << std::thread::hardware_concurrency()
      << ",\n  \"governor\": \"" << cpu_governor() << "\",\n";
}

struct KernelResult {
  std::string name;
  std::uint64_t ops = 0;
  double seconds = 0.0;
  double ops_per_s() const { return seconds > 0.0 ? double(ops) / seconds : 0.0; }
};

/// Repeats `batch` (returning the ops it performed) until `min_time`
/// seconds have been measured.
template <typename Batch>
KernelResult measure(const std::string& name, double min_time, Batch batch) {
  KernelResult result;
  result.name = name;
  batch();  // warm-up, untimed
  const Clock::time_point start = Clock::now();
  do {
    result.ops += batch();
    result.seconds = seconds_since(start);
  } while (result.seconds < min_time);
  return result;
}

std::uint64_t schedule_fire_batch() {
  constexpr std::size_t kEvents = 16384;
  sim::Engine engine;
  for (std::size_t i = 0; i < kEvents; ++i) {
    engine.schedule_in(static_cast<SimTime>(i % 97), [] {});
  }
  engine.run();
  return kEvents * 2;  // one schedule + one pop/fire each
}

std::uint64_t schedule_cancel_batch() {
  constexpr std::size_t kEvents = 4096;
  sim::Engine engine;
  std::vector<EventId> ids(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    ids[i] = engine.schedule_in(static_cast<SimTime>(i % 97), [] {});
  }
  for (std::size_t i = 0; i < kEvents; ++i) {
    engine.cancel(ids[i]);
  }
  engine.run();  // drains the dead heap entries
  return kEvents * 2;
}

std::uint64_t timer_churn_batch() {
  // Algorithm H's HELP timeout: armed, then cancelled + re-armed many
  // times before one expiry finally fires.
  constexpr std::size_t kTimers = 512;
  constexpr int kRounds = 32;
  sim::Engine engine;
  std::vector<EventId> ids(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) {
    ids[i] = engine.schedule_in(10.0 + static_cast<double>(i) * 0.01, [] {});
  }
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kTimers; ++i) {
      engine.cancel(ids[i]);
      ids[i] = engine.schedule_in(
          10.0 + static_cast<double>(r) * 0.5 + static_cast<double>(i) * 0.01,
          [] {});
    }
  }
  engine.run();
  return static_cast<std::uint64_t>(kTimers) * kRounds * 2;
}

int run_kernel(const Flags& flags) {
  const double min_time = flags.get_double("min-time", 0.4);
  const std::vector<KernelResult> results = {
      measure("engine_schedule_fire", min_time, schedule_fire_batch),
      measure("engine_schedule_cancel", min_time, schedule_cancel_batch),
      measure("engine_timer_churn", min_time, timer_churn_batch),
  };

  const std::string path = flags.get_string("kernel-out", "BENCH_kernel.json");
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return 1;
  }
  out << "{\n";
  write_machine_header(out);
  out << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"ops\": " << r.ops
        << ", \"seconds\": " << r.seconds
        << ", \"ops_per_s\": " << r.ops_per_s() << "}"
        << (i + 1 < results.size() ? "," : "") << '\n';
    std::cout << r.name << ": " << r.ops_per_s() / 1e6 << " Mops/s\n";
  }
  out << "  ],\n  \"hardware_concurrency\": " << resolve_jobs(0) << "\n}\n";
  std::cout << "kernel throughput -> " << path << '\n';
  return 0;
}

/// Every counter a run produces, rendered to one exact string. Byte
/// equality of this fingerprint is the before/after gate for the zero-copy
/// transport: sharing payloads and batching deliveries must not move a
/// single task or message.
std::string metrics_fingerprint(const experiment::RunMetrics& m) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "gen=" << m.generated << ";local=" << m.admitted_local
     << ";migr=" << m.admitted_migrated << ";rej=" << m.rejected
     << ";dead=" << m.arrivals_at_dead_nodes << ";comp=" << m.completed
     << ";lost=" << m.lost_to_attack << ";sends=" << m.ledger.total_sends()
     << ";cost=" << m.ledger.total_cost()
     << ";overhead=" << m.ledger.overhead_cost();
  return os.str();
}

/// Everything a sweep prints, rendered to one string: the four paper
/// figure tables plus their CSV forms. Byte equality of this string is the
/// determinism gate between the serial and parallel legs.
std::string render_sweep(const std::vector<experiment::SweepCell>& cells) {
  std::ostringstream os;
  const auto tables = {
      experiment::fig5_admission_probability(cells),
      experiment::fig6_message_overhead(cells),
      experiment::fig7_cost_per_admitted(cells),
      experiment::fig8_migration_rate(cells),
  };
  for (const Table& table : tables) {
    table.print(os);
    table.print_csv(os);
  }
  return os.str();
}

/// Every aggregate of every cell, rendered to one exact string — the
/// identity gate between the thread and fork exec modes: warm-start
/// snapshotting must not move a single sample of any Welford accumulator
/// or any summed counter.
std::string cells_fingerprint(const std::vector<experiment::SweepCell>& cells) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const experiment::SweepCell& cell : cells) {
    os << proto::to_string(cell.kind) << '|' << cell.lambda << '|'
       << cell.attack_set;
    for (const OnlineStats* stats :
         {&cell.admission_probability, &cell.total_messages,
          &cell.messages_per_admitted, &cell.migration_rate,
          &cell.mean_occupancy, &cell.evacuation_success}) {
      os << '|' << stats->count() << ':' << stats->mean() << ':'
         << stats->min() << ':' << stats->max() << ':' << stats->variance();
    }
    os << '|' << metrics_fingerprint(cell.summed) << '\n';
  }
  return os.str();
}

/// The warm-start bench grid: one lambda, three protocols, K single-wave
/// attack schedules of growing severity. Every (protocol, rep) slice
/// shares one pre-attack prefix across the K sets — the shape the fork
/// executor exists for.
experiment::SweepOptions warm_sweep_options(const Flags& flags,
                                            double duration,
                                            std::size_t max_victims) {
  experiment::SweepOptions options;
  options.lambdas = {flags.get_double("warm-lambda", 6.0)};
  options.protocols = {proto::ProtocolKind::kRealtor,
                       proto::ProtocolKind::kAdaptivePull,
                       proto::ProtocolKind::kPurePush};
  options.replications =
      static_cast<std::uint32_t>(flags.get_int("warm-reps", 2));
  options.jobs = static_cast<unsigned>(flags.get_int("jobs", 0));
  const std::int64_t sets = flags.get_int("warm-sets", 8);
  for (std::int64_t k = 0; k < sets; ++k) {
    experiment::AttackWave wave;
    wave.time = 0.8 * duration;
    // Growing severity, capped at the topology size — a wave cannot
    // kill more nodes than exist.
    wave.count = std::min(static_cast<std::size_t>(2 + 2 * k), max_victims);
    wave.grace = 1.0;
    wave.outage = 0.15 * duration;
    options.attack_sets.push_back({wave});
  }
  return options;
}

struct WarmBenchResult {
  std::size_t runs = 0;
  std::size_t classes = 0;
  double thread_seconds = 0.0;
  double fork_seconds = 0.0;
  double speedup = 0.0;
  bool identical = false;
  bool ran = false;
};

WarmBenchResult run_warm_bench(const Flags& flags) {
  WarmBenchResult result;
  experiment::ScenarioConfig config = benchutil::base_config(flags);
  config.duration = flags.get_double("warm-duration", 300.0);
  experiment::SweepOptions options = warm_sweep_options(
      flags, config.duration,
      static_cast<std::size_t>(config.topology.node_count()));
  result.runs = experiment::sweep_run_ids(options).size();
  result.classes =
      experiment::plan_warm_start(
          experiment::sweep_point_configs(config, options))
          .size();
  std::cout << "warm-start sweep: " << options.protocols.size()
            << " protocols x " << options.attack_sets.size()
            << " attack sets x " << options.replications << " reps = "
            << result.runs << " runs, " << result.classes
            << " classes, duration=" << config.duration << " s\n";

  options.exec = experiment::SweepExec::kThread;
  const Clock::time_point thread_start = Clock::now();
  const auto thread_cells = experiment::run_sweep(config, options);
  result.thread_seconds = seconds_since(thread_start);
  std::cout << "  exec=thread: " << result.thread_seconds << " s\n";

  options.exec = experiment::SweepExec::kFork;
  const Clock::time_point fork_start = Clock::now();
  const auto fork_cells = experiment::run_sweep(config, options);
  result.fork_seconds = seconds_since(fork_start);
  std::cout << "  exec=fork:   " << result.fork_seconds << " s"
            << (experiment::fork_exec_supported()
                    ? ""
                    : " (fork unsupported; ran as threads)")
            << '\n';

  result.identical =
      cells_fingerprint(thread_cells) == cells_fingerprint(fork_cells);
  result.speedup = result.fork_seconds > 0.0
                       ? result.thread_seconds / result.fork_seconds
                       : 0.0;
  result.ran = true;
  std::cout << "  fork speedup: " << result.speedup << "x, identical: "
            << (result.identical ? "yes" : "NO — determinism violation")
            << '\n';
  return result;
}

int run_sweep_bench(const Flags& flags) {
  const experiment::ScenarioConfig config = benchutil::base_config(flags);
  experiment::SweepOptions options = benchutil::sweep_options(flags);
  const unsigned parallel_jobs = resolve_jobs(options.jobs);
  const std::size_t runs = options.protocols.size() *
                           options.lambdas.size() * options.replications;

  std::cout << "sweep: " << options.protocols.size() << " protocols x "
            << options.lambdas.size() << " lambdas x "
            << options.replications << " reps = " << runs
            << " runs, duration=" << config.duration << " s\n";

  options.jobs = 1;
  const Clock::time_point serial_start = Clock::now();
  const auto serial_cells = experiment::run_sweep(config, options);
  const double serial_seconds = seconds_since(serial_start);
  std::cout << "serial (--jobs=1): " << serial_seconds << " s\n";

  options.jobs = parallel_jobs;
  const Clock::time_point parallel_start = Clock::now();
  const auto parallel_cells = experiment::run_sweep(config, options);
  const double parallel_seconds = seconds_since(parallel_start);
  std::cout << "parallel (--jobs=" << parallel_jobs << "): "
            << parallel_seconds << " s\n";

  const std::string serial_render = render_sweep(serial_cells);
  const bool identical = serial_render == render_sweep(parallel_cells);
  const double speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  std::cout << "speedup: " << speedup << "x, identical: "
            << (identical ? "yes" : "NO — determinism violation") << '\n';

  WarmBenchResult warm;
  if (!flags.get_bool("skip-warm", false)) {
    warm = run_warm_bench(flags);
  }

  const std::string path = flags.get_string("sweep-out", "BENCH_sweep.json");
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return 1;
  }
  out << "{\n";
  write_machine_header(out);
  out << "  \"figure\": \"fig6\",\n  \"runs\": " << runs
      << ",\n  \"replications\": " << options.replications
      << ",\n  \"duration\": " << config.duration
      << ",\n  \"jobs\": " << parallel_jobs
      << ",\n  \"serial_seconds\": " << serial_seconds
      << ",\n  \"parallel_seconds\": " << parallel_seconds
      << ",\n  \"speedup\": " << speedup
      << ",\n  \"identical\": " << (identical ? "true" : "false");
  if (warm.ran) {
    out << ",\n  \"warm_start\": {\n    \"runs\": " << warm.runs
        << ",\n    \"classes\": " << warm.classes
        << ",\n    \"fork_supported\": "
        << (experiment::fork_exec_supported() ? "true" : "false")
        << ",\n    \"thread_seconds\": " << warm.thread_seconds
        << ",\n    \"fork_seconds\": " << warm.fork_seconds
        << ",\n    \"speedup\": " << warm.speedup
        << ",\n    \"identical\": " << (warm.identical ? "true" : "false")
        << "\n  }";
  }
  out << "\n}\n";
  std::cout << "sweep wall clock -> " << path << '\n';
  if (warm.ran && !warm.identical) return 2;
  return identical ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Scale matrix: flood fan-out + attack churn at N up to 10k nodes.
//
// Each cell runs pure PUSH (one advert flood per alive node per second) at
// per-node arrival rate 0.5/s for `floods / N` simulated seconds, so every
// cell performs roughly the same number of floods while fan-out width grows
// with N. Two attack waves (kill max(1, N/50) nodes, restore them after 20%
// of the run) churn the topology version, exercising the shortest-path
// invalidation path. The unicast cost is pinned at 4.0 for every topology so
// the cell measures the transport data path, not path statistics.

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

experiment::ScenarioConfig scale_config(const std::string& topo, NodeId n,
                                        std::uint64_t floods) {
  experiment::ScenarioConfig c;
  if (topo == "torus") {
    c.topology.kind = experiment::TopologyKind::kTorus;
    c.topology.width = static_cast<NodeId>(std::lround(std::sqrt(double(n))));
    c.topology.height = c.topology.width;
  } else if (topo == "random") {
    c.topology.kind = experiment::TopologyKind::kRandom;
    c.topology.nodes = n;
    c.topology.links = static_cast<std::size_t>(n) * 2;
    c.topology.seed = 1;
  } else {
    c.topology.kind = experiment::TopologyKind::kMesh;
    c.topology.width = static_cast<NodeId>(std::lround(std::sqrt(double(n))));
    c.topology.height = c.topology.width;
  }
  c.protocol_kind = proto::ProtocolKind::kPurePush;
  c.protocol.push_interval = 1.0;
  c.lambda = 0.5 * static_cast<double>(n);
  // At least one advertise tick per node: below 1 s the periodic adverts
  // (first fired at push_interval) would never run and the cell would
  // measure nothing. Only the N=10000 cells hit the floor (and so flood
  // ~2x the nominal count); the N=25 reference cells keep duration 200 s.
  c.duration = std::max(
      1.0, static_cast<double>(floods) / static_cast<double>(n));
  c.seed = 42;
  c.fixed_unicast_cost = 4.0;  // every topology: isolate the fan-out path

  const std::size_t victims =
      std::max<std::size_t>(1, static_cast<std::size_t>(n) / 50);
  for (const double at : {0.3, 0.6}) {
    experiment::AttackWave wave;
    wave.time = at * c.duration;
    wave.count = victims;
    wave.grace = 0.0;
    wave.outage = 0.2 * c.duration;
    c.attacks.push_back(wave);
  }
  return c;
}

struct ScaleReference {
  const char* topo;
  NodeId n;
  const char* fingerprint;
};

/// Captured from the pre-change build (eager all-pairs refresh, per-
/// destination message copies) at the default --scale-floods=5000, seed 42.
constexpr ScaleReference kScaleReference[] = {
    {"mesh", 25,
     "gen=2529;local=1758;migr=203;rej=530;dead=38;comp=1101;lost=45;"
     "sends=5631;cost=194892;overhead=194080"},
    {"torus", 25,
     "gen=2529;local=1758;migr=203;rej=530;dead=38;comp=1101;lost=45;"
     "sends=5631;cost=243112;overhead=242300"},
    {"random", 25,
     "gen=2529;local=1758;migr=203;rej=530;dead=38;comp=1101;lost=45;"
     "sends=5631;cost=240232;overhead=239420"},
};

struct ScaleResult {
  std::string topo;
  NodeId n = 0;
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t floods = 0;
  std::string fingerprint;
  bool gated = false;      // an N=25 reference exists for this cell
  bool identical = true;   // fingerprint matched that reference
};

int run_scale(const Flags& flags) {
  const std::uint64_t floods =
      static_cast<std::uint64_t>(flags.get_int("scale-floods", 5000));
  const bool print_reference =
      flags.get_bool("scale-print-reference", false);
  std::vector<std::string> topos =
      split_csv(flags.get_string("scale-topos", "mesh,torus,random"));
  std::vector<NodeId> sizes;
  for (const double n :
       flags.get_double_list("scale-n", {25, 400, 2500, 10000})) {
    sizes.push_back(static_cast<NodeId>(n));
  }

  std::vector<ScaleResult> results;
  bool all_identical = true;
  for (const std::string& topo : topos) {
    for (const NodeId n : sizes) {
      const experiment::ScenarioConfig config = scale_config(topo, n, floods);
      experiment::Simulation sim(config);
      const Clock::time_point start = Clock::now();
      const experiment::RunMetrics& metrics = sim.run();
      ScaleResult result;
      result.topo = topo;
      result.n = n;
      result.seconds = seconds_since(start);
      result.events = sim.engine().events_processed();
      result.floods = metrics.ledger.sends(net::MessageKind::kPushAdvert);
      result.fingerprint = metrics_fingerprint(metrics);
      if (floods == 5000) {
        for (const ScaleReference& ref : kScaleReference) {
          if (result.topo == ref.topo && result.n == ref.n) {
            result.gated = true;
            result.identical = result.fingerprint == ref.fingerprint;
            all_identical = all_identical && result.identical;
          }
        }
      }
      std::cout << "scale " << topo << " n=" << n << ": " << result.seconds
                << " s, " << result.events << " events, " << result.floods
                << " floods"
                << (result.gated
                        ? (result.identical ? " [reference ok]"
                                            : " [REFERENCE MISMATCH]")
                        : "")
                << '\n';
      if (print_reference) {
        std::cout << "    {\"" << topo << "\", " << n << ", \""
                  << result.fingerprint << "\"},\n";
      }
      results.push_back(std::move(result));
    }
  }

  const std::string path = flags.get_string("scale-out", "BENCH_scale.json");
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return 1;
  }
  out << "{\n";
  write_machine_header(out);
  out << "  \"floods_per_cell\": " << floods << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    out << "    {\"topology\": \"" << r.topo << "\", \"n\": " << r.n
        << ", \"seconds\": " << r.seconds << ", \"events\": " << r.events
        << ", \"floods\": " << r.floods << ", \"events_per_s\": "
        << (r.seconds > 0.0 ? double(r.events) / r.seconds : 0.0)
        << ", \"gated\": " << (r.gated ? "true" : "false")
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"reference_ok\": " << (all_identical ? "true" : "false")
      << "\n}\n";
  std::cout << "scale matrix -> " << path << '\n';
  if (!all_identical) {
    std::cerr << "scale matrix diverged from the pre-change reference\n";
    return 2;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Tracing-overhead matrix: the flight recorder's ≤ budget contract as a
// tested property.
//
// One attack-heavy REALTOR cell at N=2500 (solicitations, evacuations and
// migrations on top of the steady task flow) is run four ways: untraced,
// into a flight ring, into a JSONL file, and into the live telemetry
// plane (windowing + rule evaluation per tick, no downstream, exposition
// buffered in memory). Legs are timed --obs-reps times INTERLEAVED
// (off, flight, jsonl, live, off, ...) and the per-leg
// minimum wall clock is kept — on a shared machine a load spike that
// lands during one leg's block of reps would bias the ratio; round-robin
// exposes every leg to the same windows. The JSONL leg is reported for
// scale (it is the expensive alternative the flight recorder exists to
// avoid) but not gated. A hidden --obs-null leg times a do-nothing sink,
// isolating what the emission sites themselves cost (event construction
// plus virtual dispatch) from what the ring adds.

experiment::ScenarioConfig obs_config(const Flags& flags) {
  experiment::ScenarioConfig c;
  const NodeId n = static_cast<NodeId>(flags.get_int("obs-n", 2500));
  c.topology.kind = experiment::TopologyKind::kMesh;
  c.topology.width = static_cast<NodeId>(std::lround(std::sqrt(double(n))));
  c.topology.height = c.topology.width;
  c.protocol_kind = proto::ProtocolKind::kRealtor;
  c.lambda = 0.2 * static_cast<double>(n);
  c.duration = flags.get_double("obs-duration", 10.0);
  c.seed = 42;
  // Message-cost model: exact per-hop unicast costs (the paper's §5
  // ablation, which it asserts changes no comparison) are the default —
  // at this scale they are the physically faithful model, and the run
  // does the routing work a real deployment pays, which is the baseline
  // an "always-on overhead" claim should be measured against. The
  // alternatives keep the trace density identical (the protocol makes
  // the same decisions; record counts match to the event) but skip the
  // routing work, compressing the baseline: "average" uses the computed
  // topology-average path length, "fixed4" pins the 5x5-mesh constant 4
  // — both useful to expose the recorder's raw per-event cost.
  const std::string cost = flags.get_string("obs-cost", "exact");
  if (cost == "fixed4") {
    c.fixed_unicast_cost = 4.0;
  } else if (cost == "average") {
    c.fixed_unicast_cost.reset();
  } else {
    c.cost_mode = net::CostMode::kExactHops;
    c.fixed_unicast_cost.reset();
  }
  // No periodic sampler: sampling work only happens when tracing is
  // active, so it would inflate the traced legs with gauge computation
  // the untraced leg never performs. The legs must schedule identical
  // work and differ only in the sink behind the emission sites.
  // live_cadence is set for EVERY leg for the same reason: the tick
  // callback reschedules itself whether or not a sink is attached, so
  // the engine schedule is identical and the live leg differs from
  // "off" only by the plane behind the emission sites.
  c.live_cadence = 1.0;
  // One graced wave mid-run: solicit -> evacuate -> kill -> restore, the
  // event mix the scorecard consumes.
  experiment::AttackWave wave;
  wave.time = 0.4 * c.duration;
  wave.count = static_cast<std::size_t>(flags.get_int(
      "obs-wave",
      std::max<std::int64_t>(1, static_cast<std::int64_t>(n) / 50)));
  wave.grace = 1.0;
  wave.outage = 0.3 * c.duration;
  c.attacks.push_back(wave);
  return c;
}

using SinkHandle =
    std::pair<obs::TraceSink*, std::function<std::uint64_t()>>;

struct ObsLeg {
  std::string name;
  /// Builds the leg's sink (nullptr = untraced) fresh for every rep, so
  /// ring/file state never carries across reps.
  std::function<SinkHandle()> make_sink;
  double seconds = 0.0;          // min across reps
  std::vector<double> rep_seconds;  // one entry per rep, in rep order
  std::uint64_t records = 0;     // trace records the sink received
  std::string fingerprint;
};

/// Times every leg `reps` times, interleaved round-robin. On a shared
/// machine a load spike that lands during one leg's block of reps would
/// bias the overhead ratio; cycling off → flight → jsonl each rep exposes
/// all legs to the same windows, and the per-leg minimum then picks each
/// leg's quietest one.
void run_obs_legs(std::vector<ObsLeg>& legs,
                  const experiment::ScenarioConfig& config, int reps) {
  for (int rep = 0; rep < reps; ++rep) {
    // Rotate which leg goes first each round: a load ramp inside one
    // round would otherwise always hit the same leg of every pair.
    for (std::size_t k = 0; k < legs.size(); ++k) {
      ObsLeg& leg =
          legs[(k + static_cast<std::size_t>(rep)) % legs.size()];
      auto sink = leg.make_sink();
      experiment::Simulation sim(config);
      if (sink.first != nullptr) sim.set_trace_sink(sink.first);
      const Clock::time_point start = Clock::now();
      const experiment::RunMetrics& metrics = sim.run();
      if (sink.first != nullptr) sink.first->flush();
      const double seconds = seconds_since(start);
      if (rep == 0 || seconds < leg.seconds) leg.seconds = seconds;
      leg.rep_seconds.push_back(seconds);
      leg.records = sink.second != nullptr ? sink.second() : 0;
      leg.fingerprint = metrics_fingerprint(metrics);
    }
  }
}

/// Overhead of `leg` over `base` from paired per-round ratios. Rep i of
/// every leg runs back-to-back in the same interleaving round, so each
/// pair saw nearly the same machine load and the ratio mostly cancels it.
/// The gate takes the MINIMUM ratio across rounds: external load can only
/// slow a leg down, so a spuriously high ratio needs a spike landing in
/// the leg's half of one round — and a spurious budget breach would need
/// one in every round. A real regression lifts all ratios and still trips
/// the minimum. The flip side (an off-half spike deflating one round)
/// makes the gate lenient under noise, which is the right failure mode
/// for CI on shared runners: it flags regressions larger than the noise
/// floor instead of flapping on it.
std::vector<double> paired_ratios(const ObsLeg& leg, const ObsLeg& base) {
  std::vector<double> ratios;
  const std::size_t n = std::min(leg.rep_seconds.size(),
                                 base.rep_seconds.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (base.rep_seconds[i] > 0.0) {
      ratios.push_back(leg.rep_seconds[i] / base.rep_seconds[i]);
    }
  }
  return ratios;
}

/// The gated overhead: minimum paired ratio (see above).
double paired_overhead(const ObsLeg& leg, const ObsLeg& base) {
  const std::vector<double> ratios = paired_ratios(leg, base);
  if (ratios.empty()) return 0.0;
  return *std::min_element(ratios.begin(), ratios.end()) - 1.0;
}

/// Median paired ratio — the "typical round" overhead reported alongside
/// the gated minimum. Noisier than the gate (a spike in either half of a
/// round moves it) but unbiased, so it is the number to quote.
double paired_overhead_median(const ObsLeg& leg, const ObsLeg& base) {
  std::vector<double> ratios = paired_ratios(leg, base);
  if (ratios.empty()) return 0.0;
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  return (ratios.size() % 2 == 1 ? ratios[mid]
                                 : 0.5 * (ratios[mid - 1] + ratios[mid])) -
         1.0;
}

int run_obs(const Flags& flags) {
  const experiment::ScenarioConfig config = obs_config(flags);
  const int reps = static_cast<int>(flags.get_int("obs-reps", 7));
  const double budget = flags.get_double("obs-budget", 0.05);
  const std::string jsonl_path =
      flags.get_string("obs-out", "BENCH_obs.json") + ".trace.jsonl";

  std::cout << "obs overhead: n=" << config.topology.width << "x"
            << config.topology.height << ", duration=" << config.duration
            << " s, " << reps << " reps per leg\n";

  const std::size_t capacity = static_cast<std::size_t>(flags.get_int(
      "obs-capacity", static_cast<std::int64_t>(obs::kDefaultFlightCapacity)));
  // Sinks built fresh per rep; kept alive until the leg's next rep.
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<obs::JsonlSink> jsonl;
  std::unique_ptr<obs::live::LivePlane> live_plane;

  struct NullSink final : obs::TraceSink {
    std::uint64_t seen = 0;
    void on_event(const obs::TraceEvent&) override { ++seen; }
  };
  static NullSink null_sink;

  std::vector<ObsLeg> legs(4);
  if (flags.get_bool("obs-null", false)) {
    legs.emplace_back();
    legs.back().name = "null";
    legs.back().make_sink = [] {
      null_sink.seen = 0;
      return SinkHandle{&null_sink, [] { return null_sink.seen; }};
    };
  }
  legs[0].name = "off";
  legs[0].make_sink = [] { return SinkHandle{nullptr, nullptr}; };
  legs[1].name = "flight";
  legs[1].make_sink = [&recorder, capacity] {
    recorder = std::make_unique<obs::FlightRecorder>(capacity);
    obs::FlightRing& ring = recorder->ring(0);
    return SinkHandle{&ring, [&ring] { return ring.recorded(); }};
  };
  legs[2].name = "jsonl";
  legs[2].make_sink = [&jsonl, &jsonl_path] {
    jsonl = std::make_unique<obs::JsonlSink>(jsonl_path,
                                             /*flush_every=*/256);
    obs::JsonlSink& sink = *jsonl;
    return SinkHandle{&sink, [&sink] { return sink.lines_written(); }};
  };
  // The live-telemetry plane at full price: every event windowed, the
  // default rule set evaluated each tick, exposition buffered in memory
  // (no downstream sink, no file I/O — those belong to the flight/jsonl
  // legs). Gated at the same budget as the flight recorder.
  legs[3].name = "live";
  legs[3].make_sink = [&live_plane] {
    obs::live::LiveConfig cfg;
    live_plane = std::make_unique<obs::live::LivePlane>(std::move(cfg));
    obs::live::LivePlane& plane = *live_plane;
    return SinkHandle{&plane, [&plane] { return plane.events_seen(); }};
  };
  run_obs_legs(legs, config, reps);
  const ObsLeg& off = legs[0];
  const ObsLeg& flight = legs[1];
  const ObsLeg& jsonl_leg = legs[2];
  const ObsLeg& live = legs[3];
  jsonl.reset();
  std::remove(jsonl_path.c_str());

  const auto overhead = [&off](const ObsLeg& leg) {
    return paired_overhead(leg, off);
  };
  const double flight_overhead = overhead(flight);
  const double jsonl_overhead = overhead(jsonl_leg);
  const double live_overhead = overhead(live);
  const bool identical = off.fingerprint == flight.fingerprint &&
                         off.fingerprint == jsonl_leg.fingerprint &&
                         off.fingerprint == live.fingerprint;
  const bool within_budget =
      flight_overhead <= budget && live_overhead <= budget;

  if (legs.size() > 4) {
    std::cout << "  null: " << legs[4].seconds << " s, overhead "
              << overhead(legs[4]) * 100.0 << "%\n";
  }
  for (const ObsLeg* leg : {&off, &flight, &jsonl_leg, &live}) {
    std::cout << "  " << leg->name << ": " << leg->seconds << " s";
    if (leg->records > 0) std::cout << ", " << leg->records << " records";
    if (leg != &off) {
      std::cout << ", overhead min " << overhead(*leg) * 100.0
                << "% / median "
                << paired_overhead_median(*leg, off) * 100.0 << "%";
    }
    std::cout << '\n';
  }
  std::cout << "  metrics identical across legs: "
            << (identical ? "yes" : "NO — tracing changed the run") << '\n'
            << "  flight+live budget (" << budget * 100.0 << "%): "
            << (within_budget ? "ok" : "EXCEEDED") << '\n';

  // One extra rep with the self-profiler armed (tracing off). It runs
  // AFTER the gated legs, so the budget numbers above measure the
  // shipping configuration — ProfileScope compiled in but disabled — and
  // the scope tree still lands in BENCH_obs.json for inspection.
  obs::Profiler::instance().reset();
  obs::Profiler::instance().set_enabled(true);
  {
    experiment::Simulation profiled(config);
    profiled.run();
  }
  obs::Profiler::instance().set_enabled(false);
  const std::vector<obs::ProfileEntry> profile_entries =
      obs::Profiler::instance().snapshot();
  std::vector<const obs::ProfileEntry*> profile_scopes;
  for (const obs::ProfileEntry& entry : profile_entries) {
    if (!entry.path.empty()) profile_scopes.push_back(&entry);
  }

  const std::string path = flags.get_string("obs-out", "BENCH_obs.json");
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return 1;
  }
  out << "{\n";
  write_machine_header(out);
  out << "  \"nodes\": "
      << static_cast<std::uint64_t>(config.topology.width) *
             config.topology.height
      << ",\n  \"duration\": " << config.duration
      << ",\n  \"cost_model\": \""
      << (config.cost_mode == net::CostMode::kExactHops
              ? "exact_hops"
              : (config.fixed_unicast_cost ? "fixed4" : "average"))
      << "\",\n  \"reps\": " << reps << ",\n  \"legs\": [\n";
  for (std::size_t i = 0; i < 4; ++i) {
    const ObsLeg& leg = legs[i];
    out << "    {\"name\": \"" << leg.name
        << "\", \"seconds\": " << leg.seconds
        << ", \"records\": " << leg.records
        << ", \"overhead\": " << overhead(leg)
        << ", \"overhead_median\": " << paired_overhead_median(leg, off)
        << "}" << (i < 3 ? "," : "") << '\n';
  }
  out << "  ],\n  \"profile\": [\n";
  for (std::size_t i = 0; i < profile_scopes.size(); ++i) {
    const obs::ProfileEntry& entry = *profile_scopes[i];
    out << "    {\"path\": \"" << entry.path
        << "\", \"calls\": " << entry.calls
        << ", \"ms\": " << static_cast<double>(entry.ns) / 1e6 << "}"
        << (i + 1 < profile_scopes.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"flight_overhead\": " << flight_overhead
      << ",\n  \"flight_overhead_median\": "
      << paired_overhead_median(flight, off)
      << ",\n  \"jsonl_overhead\": " << jsonl_overhead
      << ",\n  \"live_overhead\": " << live_overhead
      << ",\n  \"live_overhead_median\": "
      << paired_overhead_median(live, off)
      << ",\n  \"budget\": " << budget
      << ",\n  \"within_budget\": " << (within_budget ? "true" : "false")
      << ",\n  \"identical\": " << (identical ? "true" : "false") << "\n}\n";
  std::cout << "obs overhead matrix -> " << path << '\n';

  if (!identical) {
    std::cerr << "tracing changed run metrics — determinism violation\n";
    return 2;
  }
  if (!within_budget) {
    if (flight_overhead > budget) {
      std::cerr << "flight-recorder overhead " << flight_overhead * 100.0
                << "% exceeds the " << budget * 100.0 << "% budget\n";
    }
    if (live_overhead > budget) {
      std::cerr << "live-plane overhead " << live_overhead * 100.0
                << "% exceeds the " << budget * 100.0 << "% budget\n";
    }
    return 3;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Trace-ingest matrix: serial against sharded EventStore ingest.
//
// A synthetic 10k-node attack trace is generated deterministically (LCG,
// fixed seed, integer-rendered timestamps — every machine and locale
// benches identical bytes): the steady task flow, HELP/pledge traffic,
// kill/evacuate/restore episodes, escaped string payloads, and an
// occasional malformed line so the tolerant-accounting path is exercised
// end to end. Two legs ingest the same file:
//
//   store_serial    load_trace_store with jobs=1 (mmap + interning, one
//                   shard);
//   store_parallel  load_trace_store with --trace-jobs shards — adds the
//                   sharded parse.
//
// Every leg then runs the two heaviest analyses (the scorecard and the
// invariant catalog), so the artifact records the end-to-end wall time a
// `realtor_trace --scorecard`/`--check` user sees. The identity gate is
// the point: the sharded leg must agree with the serial one on the
// event-stream fingerprint, the scorecard JSON, the violation list, and
// the malformed accounting — byte-for-byte. At --trace-mb=32 (the CI
// size) both legs must also match kTraceReference, an oracle from outside
// the store parser. Exit 2 on any divergence.

// unsigned long long so results feed %llu without per-site casts.
unsigned long long trace_rng(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

/// Writes ~target_bytes of synthetic 10k-node trace to `path`. All number
/// formatting is integer-based (micros, millis) so the generated bytes are
/// locale-proof and identical on every platform.
bool write_synthetic_trace(const std::string& path,
                           std::uint64_t target_bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  std::string chunk;
  chunk.reserve(2u << 20);
  char line[320];
  std::uint64_t rng = 0x5851f42d4c957f2dULL;
  std::uint64_t written = 0;
  std::uint64_t micros = 0;  // simulated clock, integer microseconds
  unsigned long long task = 0;
  unsigned long long episode = 0;
  std::uint64_t lines = 0;
  constexpr unsigned kNodes = 10000;
  const auto emit = [&](int n) {
    chunk.append(line, static_cast<std::size_t>(n));
    chunk.push_back('\n');
    ++lines;
    if (chunk.size() >= (1u << 20)) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      written += chunk.size();
      chunk.clear();
    }
  };
  while (written + chunk.size() < target_bytes) {
    micros += 1 + trace_rng(rng) % 900;
    const unsigned long long ts = micros / 1000000;
    const unsigned long long tf = micros % 1000000;
    const unsigned node = static_cast<unsigned>(trace_rng(rng) % kNodes);
    if (lines % 40000 == 39999) {
      // One malformed line per ~40k: the tolerant accounting must agree
      // across every leg, so the bench input exercises it.
      emit(std::snprintf(line, sizeof line,
                         "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":", ts, tf,
                         node));
      continue;
    }
    if (lines % 5000 == 4999) {
      // Attack episode: kill -> evacuate -> restore, the scorecard's food.
      const unsigned long long lost = trace_rng(rng) % 6;
      const unsigned long long resident = 4 + trace_rng(rng) % 12;
      const unsigned long long saved = resident - trace_rng(rng) % 3;
      emit(std::snprintf(line, sizeof line,
                         "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                         "\"node_killed\",\"episode\":%llu,\"lost\":%llu}",
                         ts, tf, node, episode, lost));
      emit(std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"evacuation\","
          "\"episode\":%llu,\"resident\":%llu,\"saved\":%llu}",
          ts, tf, node, episode, resident, saved));
      emit(std::snprintf(line, sizeof line,
                         "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                         "\"node_restored\",\"episode\":%llu}",
                         ts, tf, node, episode));
      ++episode;
      continue;
    }
    if (lines % 997 == 0) {
      // Escaped string payload: forces the arena-decode path (the value
      // cannot be a view into the mapping).
      emit(std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"escalation\","
          "\"cause\":\"grace \\\"expired\\\" -> retry\\n\",\"id\":%llu}",
          ts, tf, node, task));
      continue;
    }
    const std::uint64_t pick = trace_rng(rng) % 100;
    int n;
    if (pick < 28) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"task_arrival\","
          "\"id\":%llu,\"size\":%llu.%03llu,\"deadline\":%llu.%03llu}",
          ts, tf, node, ++task, 1 + trace_rng(rng) % 9, trace_rng(rng) % 1000,
          20 + trace_rng(rng) % 80, trace_rng(rng) % 1000);
    } else if (pick < 42) {
      n = std::snprintf(line, sizeof line,
                        "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                        "\"task_admit_local\",\"id\":%llu}",
                        ts, tf, node, 1 + trace_rng(rng) % (task + 1));
    } else if (pick < 48) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"task_admit_migrated\","
          "\"id\":%llu,\"origin\":%llu}",
          ts, tf, node, 1 + trace_rng(rng) % (task + 1),
          trace_rng(rng) % kNodes);
    } else if (pick < 54) {
      n = std::snprintf(line, sizeof line,
                        "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                        "\"task_rejected\",\"id\":%llu,\"cause\":\"full\"}",
                        ts, tf, node, 1 + trace_rng(rng) % (task + 1));
    } else if (pick < 70) {
      n = std::snprintf(line, sizeof line,
                        "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                        "\"task_completed\",\"id\":%llu}",
                        ts, tf, node, 1 + trace_rng(rng) % (task + 1));
    } else if (pick < 78) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"help_sent\","
          "\"origin\":%u,\"urgency\":0.%03llu}",
          ts, tf, node, node, trace_rng(rng) % 1000);
    } else if (pick < 86) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"pledge_sent\","
          "\"pledger\":%u,\"origin\":%llu,\"availability\":0.%03llu}",
          ts, tf, node, node, trace_rng(rng) % kNodes,
          trace_rng(rng) % 1000);
    } else if (pick < 92) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"advert_sent\","
          "\"availability\":0.%03llu,\"answered\":%s}",
          ts, tf, node, trace_rng(rng) % 1000,
          trace_rng(rng) % 2 ? "true" : "false");
    } else if (pick < 97) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"migration_success\","
          "\"id\":%llu,\"target\":%llu}",
          ts, tf, node, 1 + trace_rng(rng) % (task + 1),
          trace_rng(rng) % kNodes);
    } else {
      n = std::snprintf(line, sizeof line,
                        "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                        "\"gossip_round\",\"fanout\":%llu}",
                        ts, tf, node, 1 + trace_rng(rng) % 4);
    }
    emit(n);
  }
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  return static_cast<bool>(out);
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
std::uint64_t fnv1a(std::uint64_t h, std::string_view text) {
  return fnv1a(h, text.data(), text.size());
}

/// Hashes one payload field. Numbers go through the locale-independent
/// %.17g (shortest round-trip superset), so the fingerprint is exact.
void hash_field(std::uint64_t& h, std::string_view key, obs::FieldType type,
                bool boolean, double number, std::string_view text) {
  h = fnv1a(h, key);
  const unsigned char tag = static_cast<unsigned char>(type);
  h = fnv1a(h, &tag, 1);
  switch (type) {
    case obs::FieldType::kNumber: {
      char buf[40];
      const int n = format_double(buf, sizeof buf, "%.17g", number);
      h = fnv1a(h, buf, static_cast<std::size_t>(n));
      break;
    }
    case obs::FieldType::kString:
      h = fnv1a(h, text);
      break;
    case obs::FieldType::kBool:
      h = fnv1a(h, boolean ? "1" : "0", 1);
      break;
    case obs::FieldType::kNull:
      break;
  }
  h = fnv1a(h, "\x1e", 1);
}

void hash_header(std::uint64_t& h, double time, NodeId node,
                 std::string_view kind) {
  char buf[40];
  const int n = format_double(buf, sizeof buf, "%.17g", time);
  h = fnv1a(h, buf, static_cast<std::size_t>(n));
  const std::uint32_t id = node;
  h = fnv1a(h, &id, sizeof id);
  h = fnv1a(h, kind);
  h = fnv1a(h, "\x1f", 1);
}

std::uint64_t store_fingerprint(const obs::EventStore& store) {
  std::uint64_t h = kFnvBasis;
  for (const obs::EventRec& rec : store.records()) {
    hash_header(h, rec.time, rec.node, store.name(rec.kind));
    const obs::StoredField* field = store.fields().data() + rec.field_begin;
    for (std::uint32_t i = 0; i < rec.field_count; ++i, ++field) {
      hash_field(h, store.name(field->key), field->type, field->boolean,
                 field->number, field->text);
    }
  }
  return h;
}

std::string render_violations(const std::vector<obs::Violation>& violations) {
  std::string out;
  char buf[40];
  for (const obs::Violation& v : violations) {
    out += v.invariant;
    out += '|';
    format_double(buf, sizeof buf, "%.17g", v.time);
    out += buf;
    out += '|';
    out += std::to_string(v.node);
    out += '|';
    out += v.detail;
    out += '\n';
  }
  return out;
}

std::string render_accounting(const obs::TraceLoadStats& stats) {
  std::string out = "lines=" + std::to_string(stats.lines);
  out += ";events=" + std::to_string(stats.events);
  out += ";malformed=" + std::to_string(stats.malformed);
  out += ";first_line=" + std::to_string(stats.first_malformed_line);
  out += ";first_error=" + stats.first_error;
  return out;
}

/// The four gated values of the generated --trace-mb=32 input, captured
/// from the line-by-line reader the store replaced (a parser independent
/// of the store's) before that reader was removed. Hashes are FNV-1a: the event
/// fingerprint as store_fingerprint() computes it, the scorecard JSON and
/// the rendered violation list over their bytes.
struct TraceReference {
  double mb;
  std::uint64_t fingerprint;
  std::uint64_t scorecard;
  std::uint64_t violations;
  const char* accounting;
};
constexpr TraceReference kTraceReference = {
    32.0, 0x3971d2314596f75fULL, 0xa0e6355a2ffa90abULL,
    0x14650fb0739d0383ULL,
    "lines=420906;events=420896;malformed=10;first_line=40000;"
    "first_error=expected value at offset 34"};

struct TraceLeg {
  const char* name = "";
  double load_seconds = 0.0;     // min across reps
  double analyze_seconds = 0.0;  // scorecard + invariant catalog, min
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::string scorecard;
  std::string violations;
  std::string accounting;

  bool matches(const TraceReference& ref) const {
    return fingerprint == ref.fingerprint &&
           fnv1a(kFnvBasis, scorecard) == ref.scorecard &&
           fnv1a(kFnvBasis, violations) == ref.violations &&
           accounting == ref.accounting;
  }
};

int run_trace_bench(const Flags& flags) {
  const double mb = flags.get_double("trace-mb", 100.0);
  unsigned jobs = static_cast<unsigned>(
      std::max<std::int64_t>(flags.get_int("trace-jobs", 4), 0));
  jobs = resolve_jobs(jobs);
  const int reps =
      std::max(1, static_cast<int>(flags.get_int("trace-reps", 3)));

  std::string input = flags.get_string("trace-input", "");
  const bool generated = input.empty();
  if (generated) {
    input = flags.get_string("trace-out", "BENCH_trace.json") +
            ".input.jsonl";
    std::cout << "trace ingest: generating " << mb
              << " MiB synthetic 10k-node trace...\n";
    if (!write_synthetic_trace(
            input, static_cast<std::uint64_t>(mb * 1024.0 * 1024.0))) {
      std::cerr << "cannot write " << input << '\n';
      return 1;
    }
  }

  TraceLeg serial, parallel;
  serial.name = "store_serial";
  parallel.name = "store_parallel";
  obs::IngestStats ingest;  // from the parallel leg: bytes/mapped/shards

  for (int rep = 0; rep < reps; ++rep) {
    for (TraceLeg* leg : {&serial, &parallel}) {
      const unsigned leg_jobs = leg == &serial ? 1 : jobs;
      obs::EventStore store;
      obs::IngestStats stats;
      std::string error;
      Clock::time_point start = Clock::now();
      if (!obs::load_trace_store(input, store, stats, &error, leg_jobs)) {
        std::cerr << leg->name << " failed: " << error << '\n';
        return 1;
      }
      const double load = seconds_since(start);
      if (rep == 0 || load < leg->load_seconds) leg->load_seconds = load;
      start = Clock::now();
      const obs::Scorecard card = obs::build_scorecard(store);
      const std::vector<obs::Violation> violations =
          obs::check_invariants(store);
      const double analyze = seconds_since(start);
      if (rep == 0 || analyze < leg->analyze_seconds) {
        leg->analyze_seconds = analyze;
      }
      if (rep == 0) {
        leg->events = store.size();
        leg->fingerprint = store_fingerprint(store);
        leg->scorecard = obs::render_scorecard_json(card);
        leg->violations = render_violations(violations);
        leg->accounting = render_accounting(stats);
        if (leg == &parallel) ingest = std::move(stats);
      }
    }
  }

  bool identical = true;
  const auto mismatch = [&](const char* what, bool same) {
    if (!same) {
      identical = false;
      std::cerr << "store_parallel diverged from store_serial: " << what
                << '\n';
    }
  };
  mismatch("event count", parallel.events == serial.events);
  mismatch("event fingerprint", parallel.fingerprint == serial.fingerprint);
  mismatch("scorecard JSON", parallel.scorecard == serial.scorecard);
  mismatch("violations", parallel.violations == serial.violations);
  mismatch("malformed accounting", parallel.accounting == serial.accounting);
  const bool gated = generated && mb == kTraceReference.mb;
  if (gated) {
    for (const TraceLeg* leg : {&serial, &parallel}) {
      if (!leg->matches(kTraceReference)) {
        identical = false;
        std::cerr << leg->name << " diverged from the embedded reference\n";
      }
    }
  }

  const double mib = static_cast<double>(ingest.bytes) / (1024.0 * 1024.0);
  const auto rate = [&](const TraceLeg& leg) {
    return leg.load_seconds > 0.0 ? mib / leg.load_seconds : 0.0;
  };
  const auto total = [](const TraceLeg& leg) {
    return leg.load_seconds + leg.analyze_seconds;
  };
  const double ingest_speedup =
      parallel.load_seconds > 0.0
          ? serial.load_seconds / parallel.load_seconds
          : 0.0;

  std::cout << "trace ingest: " << mib << " MiB, " << serial.events
            << " events, "
            << (serial.accounting.substr(serial.accounting.find("malformed=")))
            << ", jobs=" << jobs << ", shards=" << ingest.shards << ", "
            << (ingest.mapped ? "mmap" : "read") << '\n';
  for (const TraceLeg* leg : {&serial, &parallel}) {
    std::cout << "  " << leg->name << ": load " << leg->load_seconds
              << " s (" << rate(*leg) << " MiB/s), analyze "
              << leg->analyze_seconds << " s, total " << total(*leg)
              << " s\n";
  }
  std::cout << "  ingest speedup: jobs=" << jobs << " " << ingest_speedup
            << "x over serial, identical: "
            << (identical ? "yes" : "NO — ingest divergence")
            << (gated ? " [reference gated]" : "") << '\n';

  const std::string path = flags.get_string("trace-out", "BENCH_trace.json");
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return 1;
  }
  out.imbue(std::locale::classic());
  out << "{\n";
  // Interpreting the parallel leg needs the core count: on a
  // single-core box the sharded parse is pure overhead, on CI
  // runners it is where the speedup lives.
  write_machine_header(out);
  out << "  \"input_mib\": " << mib
      << ",\n  \"input_bytes\": " << ingest.bytes
      << ",\n  \"events\": " << serial.events
      << ",\n  \"lines\": " << ingest.lines
      << ",\n  \"malformed\": " << ingest.malformed
      << ",\n  \"jobs\": " << jobs << ",\n  \"shards\": " << ingest.shards
      << ",\n  \"mapped\": " << (ingest.mapped ? "true" : "false")
      << ",\n  \"reps\": " << reps << ",\n  \"legs\": [\n";
  const TraceLeg* legs[] = {&serial, &parallel};
  for (std::size_t i = 0; i < 2; ++i) {
    const TraceLeg& leg = *legs[i];
    out << "    {\"name\": \"" << leg.name
        << "\", \"load_seconds\": " << leg.load_seconds
        << ", \"mib_per_s\": " << rate(leg)
        << ", \"analyze_seconds\": " << leg.analyze_seconds
        << ", \"total_seconds\": " << total(leg) << "}" << (i < 1 ? "," : "")
        << '\n';
  }
  out << "  ],\n  \"parallel_speedup\": " << ingest_speedup
      << ",\n  \"reference_gated\": " << (gated ? "true" : "false")
      << ",\n  \"identical\": " << (identical ? "true" : "false") << "\n}\n";
  std::cout << "trace ingest matrix -> " << path << '\n';

  if (generated && !flags.get_bool("trace-keep", false)) {
    std::remove(input.c_str());
  }
  if (!identical) {
    std::cerr << "trace ingest diverged\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  int status = 0;
  if (!flags.get_bool("skip-kernel", false)) {
    status = run_kernel(flags);
    if (status != 0) return status;
  }
  if (!flags.get_bool("skip-scale", false)) {
    status = run_scale(flags);
    if (status != 0) return status;
  }
  if (!flags.get_bool("skip-obs", false)) {
    status = run_obs(flags);
    if (status != 0) return status;
  }
  if (!flags.get_bool("skip-trace", false)) {
    status = run_trace_bench(flags);
    if (status != 0) return status;
  }
  if (!flags.get_bool("skip-sweep", false)) {
    status = run_sweep_bench(flags);
  }
  return status;
}
