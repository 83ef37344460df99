// The §5 experiment: wires topology, hosts, one discovery-protocol
// instance per host, admission control, the Poisson workload and optional
// attack waves onto one deterministic event engine.
//
// Per-arrival sequence (matching the paper's model):
//   1. The task lands on its randomly assigned node.
//   2. If it fits the local queue it is admitted locally.
//   3. Otherwise the admission controller asks the local protocol instance
//      for candidates and performs the (default one-try) migration
//      negotiation; failure rejects the task.
//   4. The protocol observes the arrival (Algorithm H may emit HELP) —
//      after the decision, so pull-based schemes act on previously
//      gathered, possibly stale information, as the paper discusses.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "admission/admission_controller.hpp"
#include "experiment/metrics.hpp"
#include "federation/group_map.hpp"
#include "experiment/scenario.hpp"
#include "experiment/sim_transport.hpp"
#include "net/cost_model.hpp"
#include "net/failure.hpp"
#include "net/topology.hpp"
#include "node/host.hpp"
#include "node/monitor.hpp"
#include "obs/trace.hpp"
#include "proto/discovery_protocol.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"

namespace realtor::experiment {

/// One point of the run timeline (enabled by
/// ScenarioConfig::timeline_interval). Counters are cumulative;
/// window_admission is the admission probability within the last interval.
struct TimelineSample {
  SimTime time = 0.0;
  std::uint64_t generated = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  double window_admission = 1.0;
  double mean_occupancy = 0.0;   // instantaneous, across alive nodes
  double overhead_cost = 0.0;    // cumulative message units
  std::size_t alive_nodes = 0;
};

class Simulation {
 public:
  explicit Simulation(const ScenarioConfig& config);
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs the configured duration and returns the collected metrics.
  const RunMetrics& run();

  /// Phased execution for the warm-start executor; run() is exactly
  /// begin_run() + finish_run(). begin_run() performs the full t=0
  /// schedule (protocols, attacks, sample ticks, arrivals); run_prefix(t)
  /// advances the world to just before `t` (the snapshot barrier — events
  /// at exactly `t` stay pending); finish_run() runs the remainder and
  /// finalizes metrics. Splitting a run this way is observationally
  /// identical to run(): the engine fires the same events in the same
  /// order either way.
  void begin_run();
  void run_prefix(SimTime t);
  const RunMetrics& finish_run();

  /// Warm-start support: instead of scheduling config().attacks (which
  /// must be empty), begin_run() reserves `reserved_events` engine
  /// sequence numbers at the point where the attack events would have been
  /// scheduled. arm_attacks() later (typically after fork, before
  /// finish_run()) schedules a divergent wave set into that block, so the
  /// armed events land in exactly the equal-time tie-break positions an
  /// unforked run of those waves would have used. Call before begin_run().
  void defer_attacks(std::uint32_t reserved_events);

  /// Schedules `waves` into the block reserved by defer_attacks(). The
  /// block must hold at least attack_event_count(waves, ...) sequences.
  void arm_attacks(const std::vector<AttackWave>& waves);

  /// Engine events schedule_attacks() creates for `waves`; `with_listener`
  /// accounts for the per-wave attack_wave_listener event. This is the
  /// reservation size defer_attacks() needs (maximized over a warm-start
  /// class's members).
  static std::uint32_t attack_event_count(const std::vector<AttackWave>& waves,
                                          bool with_listener);

  /// Feeds one externally generated arrival (trace replay); pair with
  /// ScenarioConfig::external_arrivals. The multi-resource demand fields
  /// come from the trace instead of the internal draw.
  void inject(const sim::Arrival& arrival, double bandwidth_share = 0.0,
              std::uint8_t min_security = 0);

  /// Samples recorded at timeline_interval (empty when disabled).
  const std::vector<TimelineSample>& timeline() const { return timeline_; }

  /// Attaches a borrowed trace sink; every instrumented layer (protocols,
  /// hosts, admission, lifecycle, samples) starts emitting through it.
  /// nullptr detaches. Tracing never changes decisions: a traced run of a
  /// seed is event-for-event identical to the untraced run.
  void set_trace_sink(obs::TraceSink* sink) { tracer_.set_sink(sink); }

  /// Called right after each attack wave's kills land (same timestamp,
  /// later FIFO order) with the wave index and kill time. The flight
  /// recorder hooks this to snapshot its rings while the pre-attack
  /// window is still in memory. Set before run(); unset (default) adds
  /// no events to the schedule.
  using AttackWaveListener =
      std::function<void(std::size_t wave, SimTime kill_time)>;
  void set_attack_wave_listener(AttackWaveListener listener) {
    attack_wave_listener_ = std::move(listener);
  }

  obs::Tracer& tracer() { return tracer_; }
  /// Discovery-episode ids handed out so far (shared across all protocol
  /// instances of this run; see obs::EpisodeSource).
  const obs::EpisodeSource& episodes() const { return episodes_; }

  /// Valid after run() as well as before (for tests that drive the engine
  /// manually via engine()).
  const RunMetrics& metrics() const { return metrics_; }

  sim::Engine& engine() { return engine_; }
  const net::Topology& topology() const { return topology_; }
  /// The run's transport (payload-allocation and partition-drop counters).
  const SimTransport& transport() const { return transport_; }
  SimTransport& transport() { return transport_; }
  node::Host& host(NodeId id) { return *hosts_[id]; }
  proto::DiscoveryProtocol& protocol(NodeId id) { return *protocols_[id]; }
  const node::UtilizationMonitor& monitor(NodeId id) const {
    return monitors_[id];
  }
  const ScenarioConfig& config() const { return config_; }

 private:
  void handle_arrival(const sim::Arrival& arrival);
  void process_arrival(const sim::Arrival& arrival, double bandwidth_share,
                       std::uint8_t min_security);
  void maybe_escalate(NodeId origin);
  void evacuate(NodeId victim);
  void elusive_round();
  void take_timeline_sample();
  void live_tick();
  void on_liveness_change(NodeId nodeid, bool alive);
  void schedule_attacks(const std::vector<AttackWave>& waves);
  void finalize_telemetry();
  void sample_tick();
  /// One node_sample per alive node, then the six system_sample records.
  void take_sample(SimTime now);
  bool tracing() const { return tracer_.active(); }

  ScenarioConfig config_;
  sim::Engine engine_;
  net::Topology topology_;
  net::CostModel cost_model_;
  RunMetrics metrics_;
  SimTransport transport_;
  std::optional<federation::GroupMap> groups_;
  std::vector<SimTime> last_escalation_;
  std::vector<std::unique_ptr<node::Host>> hosts_;
  std::vector<std::unique_ptr<proto::DiscoveryProtocol>> protocols_;
  std::vector<node::UtilizationMonitor> monitors_;
  admission::AdmissionController admission_;
  sim::PoissonArrivals arrivals_;
  net::FailureInjector injector_;
  RngStream attack_rng_;
  RngStream multires_rng_;
  AttackWaveListener attack_wave_listener_;
  std::vector<TimelineSample> timeline_;
  obs::Tracer tracer_;
  obs::EpisodeSource episodes_;
  /// Time of the newest sample (sample_interval > 0); negative before the
  /// first.
  SimTime sample_last_ = -1.0;
  /// Time of the newest live_tick boundary; negative before the first.
  SimTime live_last_tick_ = -1.0;
  bool begun_ = false;
  bool finished_ = false;
  /// defer_attacks() state: reservation size requested, the first sequence
  /// of the reserved block (valid after begin_run), and whether the block
  /// is still waiting for arm_attacks().
  std::uint32_t deferred_reserve_ = 0;
  std::uint32_t reserved_first_ = 0;
  bool attacks_deferred_ = false;
};

}  // namespace realtor::experiment
