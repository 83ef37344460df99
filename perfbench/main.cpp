// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--spans-out FILE]
//   perfbench --self-check [--work-dir DIR]
//
// One invocation measures one workload (see workloads.hpp and README.md).
// It times the set-up several times, runs one warm-up unit whose outputs
// every later unit must reproduce, then measures units for S seconds:
//
//   --trace 0  untraced units; reports the end-to-end metrics.
//   --trace 1  untraced and traced units alternately. Traced units record
//              spans around the calls into each layer and read the
//              compiled-in obs::Profiler scope tree; reports the per-layer
//              metrics, per traced unit, and the tracing overhead.
//
// After the timed units an independent recomputation cross-checks the
// warm-up unit's outputs, and for the default and held-out seeds those
// outputs must match the committed fingerprints. Every mismatch or throw
// counts as a failed operation and makes the exit status nonzero.
//
// The last stdout line is one JSON object: correct, attempted, failed, and
// metrics (name -> value); run.py attaches the units from BENCHMARK.json.
// --self-check runs every workload at tiny sizes with all output checks.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/profile.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  bool self_check = false;
  std::string work_dir = ".";
  std::string spans_out;
};

/// Everything one invocation measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::string fingerprint;
  std::map<std::string, double> metrics;

  void add(const UnitResult& r, const UnitResult* first) {
    attempted += r.ops;
    failed += r.failed;
    problems.insert(problems.end(), r.problems.begin(), r.problems.end());
    if (first != nullptr && r.failed == 0 && r.digest != first->digest) {
      failed += r.ops;
      problems.push_back("unit output differs from the warm-up unit: " +
                         r.digest);
    }
  }
  void fail(const std::string& what) {
    ++attempted;
    ++failed;
    problems.push_back(what);
  }
};

constexpr const char* kProtocols[] = {"realtor", "adaptive_pull",
                                      "adaptive_push", "pure_pull",
                                      "pure_push"};

/// Per-layer metrics over the traced units (all per traced unit).
void layer_metrics(const SpanLog& log, const Counters& counters,
                   const std::vector<double>& untraced,
                   const std::vector<double>& traced,
                   std::map<std::string, double>& m) {
  const double n = std::max<double>(1.0, static_cast<double>(traced.size()));
  const SpanAttribution spans = attribute_spans(log.spans());
  const ProfileAttribution prof =
      attribute_profile(realtor::obs::Profiler::instance().snapshot());
  const auto scope = [&](const std::string& name) {
    const auto it = prof.by_scope.find(name);
    return it == prof.by_scope.end() ? NameTotals{} : it->second;
  };
  const auto span = [&](const std::string& name) {
    const auto it = spans.by_name.find(name);
    return it == spans.by_name.end() ? NameTotals{} : it->second;
  };
  const auto count = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second / n;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  const NameTotals dispatch = scope("engine/dispatch");
  m["engine.events"] = static_cast<double>(dispatch.calls) / n;
  m["engine.ns_per_event"] =
      ratio(dispatch.total_s * 1e9, static_cast<double>(dispatch.calls));
  m["engine.dispatch_self_s"] = dispatch.self_s / n;
  for (const char* p : kProtocols) {
    const NameTotals t = scope(std::string("proto/") + p);
    m[std::string("proto.") + p + ".self_s"] = t.self_s / n;
    m[std::string("proto.") + p + ".calls"] = static_cast<double>(t.calls) / n;
  }
  for (const char* k :
       {"msgs.help", "msgs.pledge", "msgs.push_advert", "msgs.negotiation",
        "msgs.migration", "transport.payload_allocs",
        "transport.dropped_unreachable", "admission.migration_attempts",
        "sweep.workers", "warm.plan_s", "warm.classes", "warm.points",
        "warm.child_cpu_s", "sink.flight_records", "sink.flight_dropped",
        "ingest.jsonl_mib", "ingest.events", "ingest.malformed",
        "analyze.episodes", "analyze.unresolved_causes"}) {
    m[k] = count(k);
  }
  for (const char* t : {"fan_out", "unicast"}) {
    const NameTotals s = scope(std::string("transport/") + t);
    m[std::string("transport.") + t + ".self_s"] = s.self_s / n;
    m[std::string("transport.") + t + ".calls"] =
        static_cast<double>(s.calls) / n;
  }
  const NameTotals bfs = scope("net/shortest_paths_bfs");
  m["net.bfs_calls"] = static_cast<double>(bfs.calls) / n;
  m["net.bfs_s"] = bfs.self_s / n;
  m["net.bfs_per_unicast"] =
      ratio(m["net.bfs_calls"], m["transport.unicast.calls"]);
  const NameTotals migrate = scope("admission/try_migrate");
  m["admission.try_migrate.calls"] = static_cast<double>(migrate.calls) / n;
  m["admission.try_migrate.self_s"] = migrate.self_s / n;
  m["admission.migration_success"] =
      ratio(count("admission.migrations_ok"),
            m["admission.migration_attempts"]);

  // The simulation layer is what its spans cover minus the profiled scopes
  // inside them (all profiled work happens inside these spans).
  double sim_self = -prof.root_total_s;
  for (const char* s : {"simulation.construct", "simulation.prefix",
                        "simulation.suffix", "sweep.run"}) {
    sim_self += span(s).self_s;
  }
  m["simulation.construct_s"] = span("simulation.construct").total_s / n;
  m["simulation.prefix_s"] = span("simulation.prefix").total_s / n;
  m["simulation.suffix_s"] = span("simulation.suffix").total_s / n;
  m["simulation.self_s"] = sim_self / n;

  std::vector<double> runs;
  for (const Span& s : log.spans()) {
    if (s.name == "sweep.run") {
      runs.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  const NameTotals execute = span("sweep.execute");
  m["sweep.runs"] = static_cast<double>(runs.size());
  m["sweep.run_p50_s"] = quantile(runs, 0.5);
  m["sweep.run_p99_s"] = quantile(runs, 0.99);
  m["sweep.executor_self_s"] = execute.self_s / n;
  m["sweep.worker_util"] =
      ratio(span("sweep.run").total_s, m["sweep.workers"] * execute.total_s);

  m["sink.flight_dump_s"] = span("sink.flight_dump").total_s / n;
  m["ingest.jsonl_s"] = span("ingest.jsonl").total_s / n;
  m["ingest.flight_s"] = span("ingest.flight").total_s / n;
  for (const char* a : {"scorecard", "invariants", "normalize",
                        "critical_path"}) {
    m[std::string("analyze.") + a + "_s"] =
        span(std::string("analyze.") + a).total_s / n;
  }

  // Each pair ran back to back, so its ratio mostly cancels the host's
  // swings in speed.
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(untraced.size(), traced.size()); ++i) {
    ratios.push_back(traced[i] / untraced[i]);
  }
  m["trace.units"] = static_cast<double>(traced.size());
  m["trace.untraced_wall_s"] = median(untraced);
  m["trace.traced_wall_s"] = median(traced);
  m["trace.overhead"] = median(ratios) - 1.0;
  m["trace.unattributed_s"] = spans.unattributed_s / n;
}

/// Runs one unit, timing it; a throw is recorded as a failed operation.
bool timed_unit(Workload& w, UnitContext& ctx, Outcome& out, double& wall) {
  try {
    const Clock::time_point start = Clock::now();
    w.unit(ctx);
    wall = seconds_since(start);
    return true;
  } catch (const std::exception& e) {
    out.fail(std::string("unit threw: ") + e.what());
    return false;
  }
}

Outcome run(const std::string& name, std::uint64_t seed, Scale scale,
            double seconds, bool traced, const Options& opt) {
  Outcome out;
  std::unique_ptr<Workload> w =
      make_workload(name, seed, scale, opt.work_dir, traced);

  // Set-up runs once before the units and, in untraced invocations, again
  // between timed units while it has taken under a quarter of the measured
  // time, so the set-up samples span the run like the units do.
  std::vector<double> setups;
  const auto time_setup = [&] {
    const Clock::time_point start = Clock::now();
    w->setup();
    setups.push_back(seconds_since(start));
  };
  time_setup();

  SpanLog log;
  UnitContext ctx{log};
  double wall = 0.0;
  if (!timed_unit(*w, ctx, out, wall)) return out;
  const UnitResult first = w->outputs(true);
  out.add(first, nullptr);
  out.fingerprint = fingerprint_hex(first.digest + ' ' + first.analysis);
  const std::string committed = committed_fingerprint(name, scale, seed);
  if (!committed.empty() && committed != out.fingerprint) {
    out.failed += first.ops;
    out.problems.push_back("outputs differ from the committed fingerprint " +
                           committed + ": " + first.digest + ' ' +
                           first.analysis);
  }

  std::vector<double> walls;      // untraced units
  std::vector<double> walls_tr;   // traced units
  Counters counters;
  realtor::obs::Profiler& profiler = realtor::obs::Profiler::instance();
  profiler.reset();
  const Clock::time_point measure_start = Clock::now();
  for (std::size_t k = 0;
       walls.empty() || seconds_since(measure_start) < seconds; ++k) {
    // Traced runs alternate which side of each pair goes first, so drift
    // in machine load hits both sides alike.
    for (int side = 0; side < (traced ? 2 : 1); ++side) {
      const bool trace_this = traced && (side == 0) == (k % 2 == 1);
      UnitContext unit_ctx{log};
      if (trace_this) {
        log.set_enabled(true);
        profiler.set_enabled(true);
        unit_ctx.root = log.open("unit", -1);
        unit_ctx.counters = &counters;
      }
      const bool ok = timed_unit(*w, unit_ctx, out, wall);
      if (trace_this) {
        log.close(unit_ctx.root);
        profiler.set_enabled(false);
        log.set_enabled(false);
      }
      if (!ok) return out;
      (trace_this ? walls_tr : walls).push_back(wall);
      out.add(w->outputs(false), &first);
    }
    double setup_total = 0.0;
    for (const double s : setups) setup_total += s;
    if (!traced && setup_total < 0.25 * seconds_since(measure_start)) {
      time_setup();
    }
  }
  try {
    out.add(w->cross_check(first), nullptr);
  } catch (const std::exception& e) {
    out.fail(std::string("cross-check threw: ") + e.what());
  }

  if (traced) {
    layer_metrics(log, counters, walls, walls_tr, out.metrics);
    if (!opt.spans_out.empty()) {
      std::ofstream spans(opt.spans_out);
      spans << "# machine " << machine_json() << '\n';
      log.write_tsv(spans);
      realtor::obs::write_profile_tsv(spans, profiler.snapshot());
    }
  } else {
    std::cout << "unit_wall_s";
    for (const double s : walls) std::cout << ' ' << s;
    std::cout << "\nsetup_s";
    for (const double s : setups) std::cout << ' ' << s;
    std::cout << '\n';
    out.metrics["wall_s"] = median(walls);
    out.metrics["ops_per_s"] =
        static_cast<double>(first.ops) / out.metrics["wall_s"];
    out.metrics["setup_s"] = median(setups);
    out.metrics["peak_rss_mib"] = peak_rss_mib();
  }
  return out;
}

void print_result(const Outcome& out) {
  for (const std::string& p : out.problems) std::cerr << "FAILED: " << p << '\n';
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted) +
          ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool comma = false;
  char buf[64];
  for (const auto& [name, value] : out.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += (comma ? ", \"" : "\"") + name + "\": " + buf;
    comma = true;
  }
  std::cout << json << "}}" << std::endl;
}

int self_check(const Options& opt) {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
      Outcome out;
      try {
        out = run(name, seed, Scale::kTiny, 0.0, /*traced=*/true, opt);
      } catch (const std::exception& e) {
        out.fail(std::string("threw: ") + e.what());
      }
      const bool pass = out.failed == 0 && out.attempted > 0;
      ok = ok && pass;
      std::cout << "self-check " << name << " seed=" << seed
                << " fingerprint=" << out.fingerprint << ' '
                << (pass ? "ok" : "FAILED") << '\n';
      for (const std::string& p : out.problems) std::cout << "  " << p << '\n';
    }
  }
  return ok ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--self-check") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.traced = value == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else if (arg == "--spans-out") {
        opt.spans_out = value;
      } else if (arg == "--self-check") {
        opt.self_check = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return opt.self_check || !opt.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--spans-out FILE]\n"
                 "       perfbench --self-check [--work-dir DIR]\n";
    return 2;
  }
  if (!optimized_build()) {
    std::cerr << "perfbench: refusing to report numbers from an unoptimised "
                 "build (needs __OPTIMIZE__ and NDEBUG)\n";
    return 3;
  }
  ::mkdir(opt.work_dir.c_str(), 0755);
  std::cout << "machine " << machine_json() << '\n';
  if (opt.self_check) return self_check(opt);
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    std::cerr << "unknown workload " << opt.workload << '\n';
    return 2;
  }
  Outcome out;
  try {
    out = run(opt.workload, opt.seed, Scale::kFull, opt.seconds, opt.traced,
              opt);
  } catch (const std::exception& e) {
    // Set-up failed: nothing was measured, so no result line.
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  std::cout << "fingerprint " << opt.workload << " full " << opt.seed << ' '
            << out.fingerprint << '\n';
  print_result(out);
  return out.failed == 0 ? 0 : 1;
}
