#include "workloads.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "experiment/figures.hpp"
#include "experiment/simulation.hpp"
#include "experiment/sweep.hpp"
#include "experiment/warm_start.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_store.hpp"
#include "obs/flight_reader.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/scorecard.hpp"
#include "obs/span.hpp"

namespace perfbench {
namespace {

using namespace realtor;
using experiment::RunMetrics;
using experiment::ScenarioConfig;
using experiment::SweepCell;

// ---------------------------------------------------------------------------
// Output fingerprints.

/// Every counter of one run (or of a cell's summed runs), exactly.
std::string metrics_text(const RunMetrics& m) {
  std::ostringstream os;
  os << std::setprecision(17) << "gen=" << m.generated
     << ";local=" << m.admitted_local << ";migr=" << m.admitted_migrated
     << ";rej=" << m.rejected << ";dead=" << m.arrivals_at_dead_nodes
     << ";comp=" << m.completed << ";work=" << m.completed_work_seconds
     << ";resp=" << m.response_time.count() << ':' << m.response_time.mean()
     << ";evac=" << m.evacuation_candidates << ':' << m.evacuated
     << ";lost=" << m.lost_to_attack << ";mig=" << m.migration_attempts << ':'
     << m.migration_aborts << ";occ=" << m.mean_occupancy
     << ";util=" << m.mean_utilization << ";ledger=";
  for (std::size_t k = 0; k < static_cast<std::size_t>(net::MessageKind::kCount);
       ++k) {
    const auto kind = static_cast<net::MessageKind>(k);
    os << m.ledger.sends(kind) << '/' << m.ledger.cost(kind) << ',';
  }
  return os.str();
}

/// Every aggregate of every cell: the Welford accumulators and summed
/// counters the figures and reports are rendered from.
std::string cells_text(const std::vector<SweepCell>& cells) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const SweepCell& cell : cells) {
    os << proto::to_string(cell.kind) << '|' << cell.lambda << '|'
       << cell.attack_set;
    for (const OnlineStats* s :
         {&cell.admission_probability, &cell.total_messages,
          &cell.messages_per_admitted, &cell.migration_rate,
          &cell.mean_occupancy, &cell.evacuation_success}) {
      os << '|' << s->count() << ':' << s->mean() << ':' << s->min() << ':'
         << s->max() << ':' << s->variance();
    }
    os << '|' << metrics_text(cell.summed) << '\n';
  }
  return os.str();
}

/// The rendered Fig. 5-8 cells, as the figure binaries print them.
std::string figures_text(const std::vector<SweepCell>& cells) {
  std::ostringstream os;
  for (const Table& table : {experiment::fig5_admission_probability(cells),
                             experiment::fig6_message_overhead(cells),
                             experiment::fig7_cost_per_admitted(cells),
                             experiment::fig8_migration_rate(cells)}) {
    table.print(os);
    table.print_csv(os);
  }
  return os.str();
}

/// Fingerprint of a loaded store: every record header and field, exactly.
std::string store_fingerprint(const obs::EventStore& store) {
  Fnv1a h;
  for (const obs::EventRec& rec : store.records()) {
    h.update_bits(rec.time);
    h.update_bits(rec.node);
    h.update(store.name(rec.kind));
    const obs::StoredField* field = store.fields().data() + rec.field_begin;
    for (std::uint32_t i = 0; i < rec.field_count; ++i, ++field) {
      h.update(store.name(field->key));
      h.update_bits(field->type);
      h.update_bits(field->boolean);
      h.update_bits(field->number);
      h.update(field->text);
    }
  }
  return h.hex();
}

std::string violations_text(const std::vector<obs::Violation>& violations) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const obs::Violation& v : violations) {
    os << v.invariant << '|' << v.time << '|' << v.node << '|' << v.detail
       << '\n';
  }
  return os.str();
}

std::string file_fingerprint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return fingerprint_hex(bytes.str());
}

void add_ledger(Counters& c, const net::MessageLedger& ledger) {
  c["msgs.help"] += static_cast<double>(ledger.sends(net::MessageKind::kHelp));
  c["msgs.pledge"] +=
      static_cast<double>(ledger.sends(net::MessageKind::kPledge));
  c["msgs.push_advert"] +=
      static_cast<double>(ledger.sends(net::MessageKind::kPushAdvert));
  c["msgs.negotiation"] +=
      static_cast<double>(ledger.sends(net::MessageKind::kNegotiation));
  c["msgs.migration"] +=
      static_cast<double>(ledger.sends(net::MessageKind::kMigration));
}

void add_migrations(Counters& c, const RunMetrics& m) {
  c["admission.migration_attempts"] +=
      static_cast<double>(m.migration_attempts);
  c["admission.migrations_ok"] +=
      static_cast<double>(m.migration_attempts - m.migration_aborts);
}

ScenarioConfig mesh(NodeId width, SimTime duration, std::uint64_t seed) {
  ScenarioConfig c;
  c.topology.kind = experiment::TopologyKind::kMesh;
  c.topology.width = width;
  c.topology.height = width;
  c.duration = duration;
  c.seed = seed;
  return c;
}

/// The attack run of perf_regression's obs scenario: REALTOR at
/// lambda = 0.2 N with one graced wave of N/50 victims at 0.4 T.
ScenarioConfig attack_run(NodeId width, SimTime duration, std::uint64_t seed) {
  ScenarioConfig c = mesh(width, duration, seed);
  const auto n = static_cast<std::size_t>(width) * width;
  c.protocol_kind = proto::ProtocolKind::kRealtor;
  c.lambda = 0.2 * static_cast<double>(n);
  experiment::AttackWave wave;
  wave.time = 0.4 * duration;
  wave.count = std::max<std::size_t>(1, n / 50);
  wave.grace = 1.0;
  wave.outage = 0.3 * duration;
  c.attacks.push_back(wave);
  return c;
}

/// Workload sizes. The full sizes give timed units of roughly 0.2 to 1.3 s
/// on a 4-core machine, so one run measures several; the tiny sizes keep
/// the self-check to seconds.
struct Sizes {
  std::uint32_t paper_reps;
  SimTime paper_duration;
  NodeId attack_width;
  SimTime attack_duration;
  std::size_t attack_runs;  // per unit
  NodeId trace_width;
  SimTime trace_duration;
  std::size_t trace_ring;  // must hold every record of the recorded run
  std::size_t warm_sets;
  std::uint32_t warm_reps;
  SimTime warm_duration;
};
constexpr Sizes kFullSizes{8,  600.0, 30, 10.0, 16, 40, 10.0,
                           std::size_t{1} << 19, 16, 8, 600.0};
constexpr Sizes kTinySizes{1,  60.0, 10, 10.0, 4, 10, 20.0,
                           std::size_t{1} << 16, 3, 1, 60.0};
const Sizes& sizes(Scale scale) {
  return scale == Scale::kFull ? kFullSizes : kTinySizes;
}

// ---------------------------------------------------------------------------
// Sweeps.

/// Do-nothing per-run sink: the sweep creates it right before a run's
/// Simulation and flushes it right after the run, so its lifetime is the
/// run's span on whichever worker thread executed it.
class RunSpanSink final : public obs::TraceSink {
 public:
  RunSpanSink(SpanLog& log, int parent)
      : log_(log), id_(log.open("sweep.run", parent)) {}
  ~RunSpanSink() override { RunSpanSink::flush(); }
  RunSpanSink(const RunSpanSink&) = delete;
  RunSpanSink& operator=(const RunSpanSink&) = delete;

  void on_event(const obs::TraceEvent&) override {}
  void flush() override {
    log_.close(id_);
    id_ = -1;
  }

 private:
  SpanLog& log_;
  int id_;
};

/// A sweep workload: the timed unit is one run_sweep() over the grid.
///
/// A profiled invocation runs thread sweeps serially, traced and untraced
/// units alike: obs::Profiler takes a mutex on every scope entry and exit,
/// and four workers contending for it ran a traced paper_sweep unit 50x
/// slower than an untraced one, which buried every layer's time under lock
/// waits. Forked children each profile into their own copy, so fork sweeps
/// keep their workers.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(ScenarioConfig base, experiment::SweepOptions options,
                bool render_figures, bool profiled)
      : base_(std::move(base)),
        options_(std::move(options)),
        render_figures_(render_figures) {
    options_.jobs =
        profiled && options_.exec == experiment::SweepExec::kThread
            ? 1
            : worker_count();
  }

  void setup() override {
    const std::vector<ScenarioConfig> points =
        experiment::sweep_point_configs(base_, options_);
    const Clock::time_point plan_start = Clock::now();
    classes_ = experiment::plan_warm_start(points);
    plan_s_ = seconds_since(plan_start);
    points_ = points.size();
    for (const ScenarioConfig& config : points) {
      experiment::Simulation simulation(config);
    }
  }

  void unit(UnitContext& ctx) override {
    experiment::SweepOptions options = options_;
    const double cpu_before = children_cpu_s();
    {
      ScopedSpan span(ctx.spans, "sweep.execute", ctx.root);
      // Forked children cannot hand spans back, so only in-process
      // execution gets per-run spans.
      if (span.id() >= 0 && options.exec == experiment::SweepExec::kThread) {
        SpanLog& log = ctx.spans;
        const int parent = span.id();
        options.make_trace_sink = [&log, parent](const experiment::RunId&) {
          return std::make_unique<RunSpanSink>(log, parent);
        };
      }
      cells_ = execute(options);
    }
    if (ctx.counters != nullptr) {
      Counters& c = *ctx.counters;
      for (const SweepCell& cell : cells_) {
        add_ledger(c, cell.summed.ledger);
        add_migrations(c, cell.summed);
      }
      c["warm.child_cpu_s"] += children_cpu_s() - cpu_before;
      c["warm.plan_s"] += plan_s_;
      c["warm.classes"] += static_cast<double>(classes_.size());
      c["warm.points"] += static_cast<double>(points_);
      c["sweep.workers"] += static_cast<double>(options.jobs);
    }
  }

  UnitResult outputs(bool /*first*/) override {
    UnitResult result;
    result.ops = points_;
    result.digest = digest();
    return result;
  }

  /// The same grid through the other executor: thread instead of fork
  /// execution, or the serial path instead of workers (and back).
  UnitResult cross_check(const UnitResult& first) override {
    experiment::SweepOptions reference = options_;
    if (reference.exec == experiment::SweepExec::kFork) {
      reference.exec = experiment::SweepExec::kThread;
    } else {
      reference.jobs = reference.jobs == 1 ? worker_count() : 1;
    }
    const std::vector<SweepCell> kept = std::move(cells_);
    cells_ = execute(reference);
    UnitResult result;
    result.ops = points_;
    result.digest = digest();
    if (result.digest != first.digest) {
      result.failed = points_;
      result.problems.push_back(
          std::string("exec=") + experiment::to_string(reference.exec) +
          " jobs=" + std::to_string(reference.jobs) +
          " disagrees: " + result.digest + " vs " + first.digest);
    }
    cells_ = kept;
    return result;
  }

 private:
  std::vector<SweepCell> execute(experiment::SweepOptions options) {
    runs_.clear();
    options.on_run = [this](const SweepCell& cell, std::uint32_t rep) {
      // on_run fires after each run is folded into its cell, in serial
      // order, so the running totals pin every run's counters.
      runs_ += std::to_string(rep) + '|' + metrics_text(cell.summed) + '\n';
    };
    return experiment::run_sweep(base_, options);
  }

  std::string digest() const {
    std::string out = "cells=" + fingerprint_hex(cells_text(cells_)) +
                      " runs=" + fingerprint_hex(runs_);
    if (render_figures_) {
      out += " figures=" + fingerprint_hex(figures_text(cells_));
    }
    return out;
  }

  ScenarioConfig base_;
  experiment::SweepOptions options_;
  bool render_figures_;
  std::vector<experiment::WarmStartClass> classes_;
  std::size_t points_ = 0;
  double plan_s_ = 0.0;
  std::vector<SweepCell> cells_;
  std::string runs_;
};

/// The attack-parameter sweep: 3 protocols x K single-wave sets x R
/// replications, waves at 0.8 T, so every (protocol, replication) slice
/// shares one pre-attack prefix, run by warm-start fork execution.
experiment::SweepOptions warm_sweep_options(const Sizes& size) {
  experiment::SweepOptions options;
  options.lambdas = {6.0};
  options.protocols = {proto::ProtocolKind::kRealtor,
                       proto::ProtocolKind::kAdaptivePull,
                       proto::ProtocolKind::kPurePush};
  options.replications = size.warm_reps;
  options.exec = experiment::SweepExec::kFork;
  for (std::size_t k = 0; k < size.warm_sets; ++k) {
    experiment::AttackWave wave;
    wave.time = 0.8 * size.warm_duration;
    wave.count = std::min<std::size_t>(2 + 2 * k, 25);
    wave.grace = 1.0;
    wave.outage = 0.15 * size.warm_duration;
    options.attack_sets.push_back({wave});
  }
  return options;
}

// ---------------------------------------------------------------------------
// Attack runs with the flight recorder on.

/// REALTOR on a large mesh with exact-hop unicast costs and the always-on
/// flight recorder, phased so the pre-wave prefix and the suffix time
/// separately; the ring is dumped at exit.
///
/// A unit is a fixed number of such runs, all alike, shared out to one child
/// process per worker: each child takes the next run from a job pipe until
/// none are left, so a worker on a slow CPU simply does fewer of them. The
/// host's CPUs change speed independently, so sharing the runs out averages
/// their speeds, where one run per worker would wait for the slowest and one
/// run in all would take whichever CPU it landed on. Each child dumps to a
/// file of its own and reports every run's counters; all runs must agree,
/// and so must the workers' files, which hold the last dump of each.
/// Separate processes keep each worker's memory, and so the peak resident
/// set, the same from unit to unit. A profiled invocation runs every run
/// in-process, one after another, in traced and untraced units alike,
/// because the profiler's tree stays in the process that records it.
class AttackScale final : public Workload {
 public:
  AttackScale(std::uint64_t seed, Scale scale, const std::string& work_dir,
              bool profiled)
      : config_(attack_run(sizes(scale).attack_width,
                           sizes(scale).attack_duration, seed)),
        runs_(sizes(scale).attack_runs),
        work_dir_(work_dir),
        forked_(!profiled) {
    config_.cost_mode = net::CostMode::kExactHops;
    config_.fixed_unicast_cost.reset();
  }

  /// Constructs the unit's simulations, one after another.
  void setup() override {
    for (std::size_t i = 0; i < runs_; ++i) {
      experiment::Simulation simulation(config_);
    }
  }

  void unit(UnitContext& ctx) override {
    results_.clear();
    if (forked_) {
      run_forked(ctx);
    } else {
      for (std::size_t i = 0; i < runs_; ++i) {
        results_.push_back(parse_result(run_one(ctx, 0)));
      }
    }
  }

  UnitResult outputs(bool first) override {
    UnitResult result;
    result.ops = runs_;
    const auto fail = [&](const std::string& problem) {
      result.failed = result.ops;
      result.problems.push_back(problem);
      return result;
    };
    for (const RunResult& r : results_) {
      if (!r.ok) return fail("attack run failed: " + r.text);
    }
    if (results_.size() != runs_) {
      return fail(std::to_string(results_.size()) + " of " +
                  std::to_string(runs_) + " attack runs reported");
    }
    // Each worker's file holds the dump of the last run it did; reading
    // them back here keeps the hashing out of the timed unit.
    std::vector<std::size_t> workers;
    for (const RunResult& r : results_) {
      if (r.text != results_.front().text) {
        return fail("attack runs disagree: " + r.text + " vs " +
                    results_.front().text);
      }
      if (std::find(workers.begin(), workers.end(), r.worker) ==
          workers.end()) {
        workers.push_back(r.worker);
      }
    }
    std::string dump;
    for (const std::size_t worker : workers) {
      const std::string bytes = file_fingerprint(dump_path(worker));
      if (!dump.empty() && bytes != dump) {
        return fail("dump files disagree: " + bytes + " vs " + dump);
      }
      dump = bytes;
    }
    result.digest = results_.front().text + " dump=" + dump;
    if (first) analyze_dump(dump_path(workers.front()), result);
    return result;
  }

  UnitResult cross_check(const UnitResult& first) override {
    // Tracing never changes decisions: the run without the recorder must
    // produce the same counters.
    experiment::Simulation simulation(config_);
    const std::string untraced =
        fingerprint_hex(metrics_text(simulation.run()));
    UnitResult result;
    result.ops = 1;
    if (first.digest.find("metrics=" + untraced) == std::string::npos) {
      result.failed = 1;
      result.problems.push_back("run without the flight recorder disagrees");
    }
    return result;
  }

 private:
  /// One run's report: its counters' fingerprint, or why it failed, and
  /// the worker whose dump file it wrote.
  struct RunResult {
    bool ok = false;
    std::size_t worker = 0;
    std::string text;
  };

  std::string dump_path(std::size_t worker) const {
    return work_dir_ + "/attack_scale." + std::to_string(worker) +
           ".flight.bin";
  }

  /// One attack run as worker `worker`, reported as one line: "1 <worker>
  /// <counters>" or "0 <worker> <error>". In traced units it also adds the
  /// layer counts.
  std::string run_one(UnitContext& ctx, std::size_t worker) const {
    const std::string path = dump_path(worker);
    std::optional<obs::FlightRecorder> recorder;
    std::optional<experiment::Simulation> simulation;
    {
      ScopedSpan span(ctx.spans, "simulation.construct", ctx.root);
      recorder.emplace(obs::kDefaultFlightCapacity);
      simulation.emplace(config_);
      simulation->set_trace_sink(&recorder->ring(0));
    }
    {
      ScopedSpan span(ctx.spans, "simulation.prefix", ctx.root);
      simulation->begin_run();
      simulation->run_prefix(config_.attacks.front().time);
    }
    RunMetrics metrics;
    {
      ScopedSpan span(ctx.spans, "simulation.suffix", ctx.root);
      metrics = simulation->finish_run();
    }
    std::string error;
    bool dumped = false;
    {
      ScopedSpan span(ctx.spans, "sink.flight_dump", ctx.root);
      dumped = recorder->dump(path, &error);
    }
    const obs::FlightRing& ring = recorder->ring(0);
    if (ctx.counters != nullptr) {
      Counters& c = *ctx.counters;
      add_ledger(c, metrics.ledger);
      add_migrations(c, metrics);
      c["transport.payload_allocs"] +=
          static_cast<double>(simulation->transport().payload_allocations());
      c["transport.dropped_unreachable"] +=
          static_cast<double>(simulation->transport().dropped_unreachable());
      c["sink.flight_records"] += static_cast<double>(ring.recorded());
      c["sink.flight_dropped"] += static_cast<double>(ring.dropped());
    }
    std::string line = (dumped ? "1 " : "0 ") + std::to_string(worker) + ' ';
    if (!dumped) {
      std::replace(error.begin(), error.end(), '\n', ' ');
      return line + "flight dump failed: " + error;
    }
    return line + "metrics=" + fingerprint_hex(metrics_text(metrics)) +
           " flight=" + std::to_string(ring.recorded()) + '/' +
           std::to_string(ring.dropped());
  }

  static RunResult parse_result(const std::string& line) {
    RunResult r;
    std::istringstream in(line);
    int ok = 0;
    in >> ok >> r.worker;
    in.get();
    std::getline(in, r.text);
    r.ok = in && ok == 1;
    return r;
  }

  /// Shares the runs out to one child per worker through a job pipe holding
  /// one byte per run; each child writes one line per run to a result pipe
  /// (a line is shorter than PIPE_BUF, so lines never interleave). Every
  /// child started is waited for, whatever happens to the others.
  void run_forked(UnitContext& ctx) {
    int jobs[2];
    int done[2];
    if (::pipe(jobs) != 0) return;
    if (::pipe(done) != 0) {
      ::close(jobs[0]);
      ::close(jobs[1]);
      return;
    }
    const std::string tokens(runs_, 'r');
    const bool queued = ::write(jobs[1], tokens.data(), tokens.size()) ==
                        static_cast<ssize_t>(tokens.size());
    ::close(jobs[1]);
    std::vector<pid_t> children;
    for (std::size_t worker = 0; queued && worker < worker_count(); ++worker) {
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::close(done[0]);
        int status = 0;
        try {
          char token = 0;
          while (::read(jobs[0], &token, 1) == 1) {
            const std::string line = run_one(ctx, worker) + '\n';
            if (line.size() >= PIPE_BUF ||
                ::write(done[1], line.data(), line.size()) !=
                    static_cast<ssize_t>(line.size())) {
              status = 1;
              break;
            }
          }
        } catch (...) {
          status = 1;
        }
        ::_exit(status);
      }
      if (pid < 0) break;
      children.push_back(pid);
    }
    ::close(jobs[0]);
    ::close(done[1]);
    std::string text;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(done[0], buf, sizeof buf);
      if (n > 0) {
        text.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    ::close(done[0]);
    bool children_ok = true;
    for (const pid_t pid : children) {
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      children_ok =
          children_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      results_.push_back(parse_result(line));
    }
    if (!children_ok) results_.push_back({false, 0, "a child process failed"});
  }

  /// Scorecard, invariant catalogue and critical-path gate over the dump.
  /// The ring keeps only the newest records, so causes evicted with older
  /// records stay unresolved; the structural path check must still pass.
  static void analyze_dump(const std::string& path, UnitResult& result) {
    obs::EventStore store;
    obs::FlightStoreInfo info;
    obs::TraceLoadStats stats;
    std::string error;
    if (!obs::load_flight_file(path, store, info, stats, &error) ||
        stats.malformed != 0) {
      result.failed = 1;
      result.problems.push_back("flight dump unreadable: " + error);
      return;
    }
    const obs::CriticalPathAnalysis paths =
        obs::analyze_critical_paths(obs::normalize_events(store));
    const std::vector<std::string> errors = obs::check_critical_paths(paths);
    result.analysis =
        "scorecard=" +
        fingerprint_hex(obs::render_scorecard_json(obs::build_scorecard(store))) +
        " violations=" +
        fingerprint_hex(violations_text(obs::check_invariants(store))) +
        " paths=" + fingerprint_hex(obs::render_critical_path(paths));
    if (!errors.empty()) {
      result.failed = 1;
      result.problems.push_back("critical-path check: " + errors.front());
    }
  }

  ScenarioConfig config_;
  std::size_t runs_;
  std::string work_dir_;
  bool forked_;
  std::vector<RunResult> results_;
};

// ---------------------------------------------------------------------------
// Run -> dump -> analysis.

/// Feeds one run's events to the JSONL file and the flight ring at once.
class TeeSink final : public obs::TraceSink {
 public:
  TeeSink(obs::TraceSink& a, obs::TraceSink& b) : a_(a), b_(b) {}
  void on_event(const obs::TraceEvent& event) override {
    a_.on_event(event);
    b_.on_event(event);
  }
  void flush() override {
    a_.flush();
    b_.flush();
  }

 private:
  obs::TraceSink& a_;
  obs::TraceSink& b_;
};

/// One analysis pass's outputs.
struct PassOutput {
  std::size_t events = 0;
  std::size_t malformed = 0;
  std::string scorecard;
  std::vector<obs::Violation> violations;
  std::string paths;
  std::vector<std::string> path_errors;
  std::uint64_t episodes = 0;
  std::uint64_t unresolved = 0;
};

/// Setup records one lineage-carrying attack run as a JSONL trace and as a
/// flight dump whose ring holds the whole run; each timed unit loads both
/// and runs the scorecard, the invariant catalogue and the critical-path
/// analysis on each.
class TracePipeline final : public Workload {
 public:
  TracePipeline(std::uint64_t seed, Scale scale, const std::string& work_dir)
      : config_(attack_run(sizes(scale).trace_width,
                           sizes(scale).trace_duration, seed)),
        ring_capacity_(sizes(scale).trace_ring),
        jsonl_path_(work_dir + "/trace_pipeline.jsonl"),
        flight_path_(work_dir + "/trace_pipeline.flight.bin") {}

  void setup() override {
    // Drop the last unit's stores first: the JSONL one maps the file that
    // is about to be rewritten.
    stores_[0] = obs::EventStore();
    stores_[1] = obs::EventStore();
    experiment::Simulation simulation(config_);
    obs::FlightRecorder recorder(ring_capacity_);
    obs::FlightRing& ring = recorder.ring(0);
    {
      obs::JsonlSink jsonl(jsonl_path_, /*flush_every=*/4096);
      if (!jsonl.ok()) throw std::runtime_error("cannot write " + jsonl_path_);
      TeeSink tee(jsonl, ring);
      simulation.set_trace_sink(&tee);
      simulation.run();
      tee.flush();
      simulation.set_trace_sink(nullptr);
    }
    if (ring.dropped() != 0) {
      throw std::runtime_error("flight ring of " +
                               std::to_string(ring_capacity_) +
                               " records cannot hold the run's " +
                               std::to_string(ring.recorded()));
    }
    std::string error;
    if (!recorder.dump(flight_path_, &error)) throw std::runtime_error(error);
    std::ifstream in(jsonl_path_, std::ios::binary | std::ios::ate);
    jsonl_mib_ = static_cast<double>(in.tellg()) / (1024.0 * 1024.0);
  }

  void unit(UnitContext& ctx) override {
    std::string error;
    {
      ScopedSpan span(ctx.spans, "ingest.jsonl", ctx.root);
      stores_[0] = obs::EventStore();
      obs::IngestStats stats;
      load_ok_[0] = obs::load_trace_store(jsonl_path_, stores_[0], stats,
                                          &error, worker_count());
      passes_[0].malformed = stats.malformed;
    }
    // The rest is single-threaded: move it to the next CPU in turn.
    const CpuTurn pin(units_++);
    {
      ScopedSpan span(ctx.spans, "ingest.flight", ctx.root);
      stores_[1] = obs::EventStore();
      obs::FlightStoreInfo info;
      obs::TraceLoadStats stats;
      load_ok_[1] =
          obs::load_flight_file(flight_path_, stores_[1], info, stats, &error);
      passes_[1].malformed = stats.malformed;
    }
    for (std::size_t i = 0; i < 2; ++i) analyze(ctx, stores_[i], passes_[i]);
    if (ctx.counters != nullptr) {
      Counters& c = *ctx.counters;
      c["ingest.jsonl_mib"] += jsonl_mib_;
      for (const PassOutput& pass : passes_) {
        c["ingest.events"] += static_cast<double>(pass.events);
        c["ingest.malformed"] += static_cast<double>(pass.malformed);
        c["analyze.episodes"] += static_cast<double>(pass.episodes);
        c["analyze.unresolved_causes"] += static_cast<double>(pass.unresolved);
      }
    }
  }

  UnitResult outputs(bool /*first*/) override {
    UnitResult result;
    result.ops = 2;
    std::string digests[2];
    for (std::size_t i = 0; i < 2; ++i) {
      const PassOutput& pass = passes_[i];
      const char* name = i == 0 ? "jsonl" : "flight";
      std::string problem;
      if (!load_ok_[i] || pass.malformed != 0) {
        problem = "load failed or saw malformed records";
      } else if (!pass.violations.empty()) {
        problem = "invariant " + std::string(pass.violations.front().invariant) +
                  " violated";
      } else if (!pass.path_errors.empty()) {
        problem = "critical-path check: " + pass.path_errors.front();
      }
      if (!problem.empty()) {
        ++result.failed;
        result.problems.push_back(std::string(name) + " pass: " + problem);
      }
      digests[i] = "store=" + store_fingerprint(stores_[i]) +
                   " scorecard=" + fingerprint_hex(pass.scorecard) +
                   " violations=" +
                   fingerprint_hex(violations_text(pass.violations)) +
                   " paths=" + fingerprint_hex(pass.paths);
    }
    if (digests[0] != digests[1]) {
      result.failed = 2;
      result.problems.push_back("JSONL and flight passes disagree: " +
                                digests[0] + " vs " + digests[1]);
    }
    result.digest = digests[0];
    return result;
  }

  UnitResult cross_check(const UnitResult& first) override {
    // The sharded parse must equal the serial one.
    obs::EventStore serial;
    obs::IngestStats stats;
    std::string error;
    UnitResult result;
    result.ops = 1;
    if (!obs::load_trace_store(jsonl_path_, serial, stats, &error, 1) ||
        first.digest.find("store=" + store_fingerprint(serial)) ==
            std::string::npos) {
      result.failed = 1;
      result.problems.push_back("serial JSONL parse disagrees: " + error);
    }
    return result;
  }

 private:
  void analyze(UnitContext& ctx, const obs::EventStore& store,
               PassOutput& pass) {
    pass.events = store.size();
    {
      ScopedSpan span(ctx.spans, "analyze.scorecard", ctx.root);
      pass.scorecard = obs::render_scorecard_json(obs::build_scorecard(store));
    }
    {
      ScopedSpan span(ctx.spans, "analyze.invariants", ctx.root);
      pass.violations = obs::check_invariants(store);
    }
    std::vector<obs::SpanEvent> events;
    {
      ScopedSpan span(ctx.spans, "analyze.normalize", ctx.root);
      events = obs::normalize_events(store);
    }
    {
      ScopedSpan span(ctx.spans, "analyze.critical_path", ctx.root);
      const obs::CriticalPathAnalysis analysis =
          obs::analyze_critical_paths(events);
      pass.paths = obs::render_critical_path(analysis);
      pass.path_errors = obs::check_critical_paths(analysis);
      pass.episodes = analysis.paths.size();
      pass.unresolved = analysis.unresolved_causes;
    }
  }

  ScenarioConfig config_;
  std::size_t ring_capacity_;
  std::string jsonl_path_;
  std::string flight_path_;
  double jsonl_mib_ = 0.0;
  obs::EventStore stores_[2];
  bool load_ok_[2] = {false, false};
  PassOutput passes_[2];
  std::size_t units_ = 0;
};

// ---------------------------------------------------------------------------
// Committed fingerprints of the warm-up unit's outputs (digest plus
// once-per-run analyses) for the default and held-out seeds.

struct Committed {
  const char* workload;
  Scale scale;
  std::uint64_t seed;
  const char* fingerprint;
};

constexpr Committed kCommitted[] = {
    {"paper_sweep", Scale::kFull, 1, "9b84ede07280081b"},
    {"paper_sweep", Scale::kFull, 7, "956f290043b0ec10"},
    {"attack_scale", Scale::kFull, 1, "57a770d66ec4bc94"},
    {"attack_scale", Scale::kFull, 7, "fb86b5533a12facb"},
    {"trace_pipeline", Scale::kFull, 1, "2271f13f9e8df203"},
    {"trace_pipeline", Scale::kFull, 7, "1cd09c93ecca3548"},
    {"warm_attack_sweep", Scale::kFull, 1, "2fd9165feb87d83c"},
    {"warm_attack_sweep", Scale::kFull, 7, "856aa12be9e9ec34"},
    {"paper_sweep", Scale::kTiny, 1, "de025f35035048c8"},
    {"paper_sweep", Scale::kTiny, 7, "d2ecdf2272583acd"},
    {"attack_scale", Scale::kTiny, 1, "7eddd6987b84e214"},
    {"attack_scale", Scale::kTiny, 7, "7dc7270f22cf5f28"},
    {"trace_pipeline", Scale::kTiny, 1, "4bc29447bb8236e4"},
    {"trace_pipeline", Scale::kTiny, 7, "58239312d0ef24dc"},
    {"warm_attack_sweep", Scale::kTiny, 1, "5676c46b43573946"},
    {"warm_attack_sweep", Scale::kTiny, 7, "4f403ef85b00304c"},
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_sweep", "attack_scale", "trace_pipeline", "warm_attack_sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, Scale scale,
                                        const std::string& work_dir,
                                        bool profiled) {
  const Sizes& size = sizes(scale);
  if (name == "paper_sweep") {
    // Figs. 5-8: five protocols x lambda 1..10 x R replications on the
    // 5x5 mesh with the paper's pinned unicast cost.
    return std::make_unique<SweepWorkload>(
        mesh(5, size.paper_duration, seed),
        experiment::paper_sweep_options({1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
                                        size.paper_reps),
        /*render_figures=*/true, profiled);
  }
  if (name == "attack_scale") {
    return std::make_unique<AttackScale>(seed, scale, work_dir, profiled);
  }
  if (name == "trace_pipeline") {
    return std::make_unique<TracePipeline>(seed, scale, work_dir);
  }
  if (name == "warm_attack_sweep") {
    return std::make_unique<SweepWorkload>(mesh(5, size.warm_duration, seed),
                                           warm_sweep_options(size),
                                           /*render_figures=*/false, profiled);
  }
  return nullptr;
}

std::string committed_fingerprint(std::string_view workload, Scale scale,
                                  std::uint64_t seed) {
  for (const Committed& c : kCommitted) {
    if (workload == c.workload && scale == c.scale && seed == c.seed) {
      return c.fingerprint;
    }
  }
  return "";
}

}  // namespace perfbench
