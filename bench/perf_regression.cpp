// perf_regression — the scale-matrix timing and the tracing-overhead gate.
//
// Two artifacts:
//
//   BENCH_scale.json   the flood fan-out + attack-churn scale matrix:
//                      mesh/torus/random topologies at N in {25, 400,
//                      2500, 10000}, each cell a PUSH-flood-heavy run
//                      (~--scale-floods floods regardless of N) under two
//                      kill/restore churn waves. The N=25 cells are gated
//                      on byte-identical metrics against a reference
//                      captured before the zero-copy transport landed
//                      (ctest runs that gate as perf_regression_scale_n25).
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
//
// The other benchmarks live elsewhere: engine kernel throughput in
// micro_kernel (google-benchmark), the Fig. 5-8 sweep, warm-start sweep
// and trace-ingest timings in perfbench, and their identity checks in
// ctest (see DESIGN.md, "Benchmark-regression artifacts").
//
// Flags:
//   --scale-out=PATH    default BENCH_scale.json
//   --obs-out=PATH      default BENCH_obs.json
//   --skip-scale / --skip-obs
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
//   --obs-null          add a do-nothing-sink leg (emission-site floor;
//                       reported and written to --obs-out, never gated)
//
// Exit status: 0 when every gate holds; 1 when an artifact cannot be
// written; 2 when an N=25 scale cell's metrics diverge from the pre-change
// reference or a traced obs leg's metrics diverge from the untraced leg;
// 3 when the flight-recorder or live-plane overhead exceeds its budget.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/profile.hpp"
#include "experiment/simulation.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/live/live_plane.hpp"

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
    std::cout << "  null: " << legs[4].seconds << " s, overhead min "
              << overhead(legs[4]) * 100.0 << "% / median "
              << paired_overhead_median(legs[4], off) * 100.0 << "%\n";
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
  // The null leg, when run, is listed too; it is never gated.
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const ObsLeg& leg = legs[i];
    out << "    {\"name\": \"" << leg.name
        << "\", \"seconds\": " << leg.seconds
        << ", \"records\": " << leg.records
        << ", \"overhead\": " << overhead(leg)
        << ", \"overhead_median\": " << paired_overhead_median(leg, off)
        << "}" << (i + 1 < legs.size() ? "," : "") << '\n';
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

}  // namespace

int bench_main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (!flags.get_bool("skip-scale", false)) {
    const int status = run_scale(flags);
    if (status != 0) return status;
  }
  if (!flags.get_bool("skip-obs", false)) {
    return run_obs(flags);
  }
  return 0;
}
