// The Fig. 9 testbed: N HostRuntimes (paper: 20 Linux workstations) plus a
// workload driver that replays a Poisson trace in compressed wall time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "agile/channel.hpp"
#include "agile/clock.hpp"
#include "agile/host_runtime.hpp"
#include "agile/naming.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"
#include "obs/live/live_plane.hpp"
#include "obs/trace.hpp"
#include "proto/config.hpp"

namespace realtor::agile {

struct ClusterConfig {
  NodeId num_hosts = 20;
  double queue_capacity = 50.0;  // Fig. 9: queue_size = 50
  proto::ProtocolConfig protocol;
  /// Discovery scheme spoken by every host (paper's measurement: REALTOR).
  proto::ProtocolKind discovery = proto::ProtocolKind::kRealtor;
  std::uint32_t max_tries = 1;

  /// Workload (matches the simulation scenario, §6: "the experiment
  /// scenario remains the same as in the simulation").
  double lambda = 4.0;
  double mean_task_size = 5.0;
  SimTime model_duration = 60.0;

  /// Wall seconds per model second (0.005 -> 200x faster than real time).
  double time_compression = 0.005;
  /// UDP-like loss applied to HELP/PLEDGE datagrams.
  double loss_probability = 0.0;
  /// One-way propagation delay in model seconds (applies to datagrams and
  /// to each leg of the sequential negotiation RPC).
  SimTime network_delay = 0.0;
  /// §3 speculative migration (state ships with the admission request).
  bool speculative_migration = false;
  /// Model seconds to keep the cluster alive after the last arrival so
  /// in-flight negotiations and transfers settle.
  SimTime drain = 5.0;

  std::uint64_t seed = 42;

  /// Attack schedule: `victim` is stopped at `time` and (outage > 0)
  /// restarted cold at `time + outage` by the workload driver.
  struct Attack {
    SimTime time = 0.0;
    NodeId victim = kInvalidNode;
    SimTime outage = 0.0;
  };
  std::vector<Attack> attacks;

  /// Per-host trace sink factory. Called once per host at construction;
  /// the returned sink is borrowed (must outlive the cluster) and receives
  /// the events whose node is that host — a flight-recorder ring per
  /// host, or one shared thread-safe JsonlSink returned for every id. The
  /// host's reactor writes them, except node_killed (written by the
  /// driver after the reactor joined) and node_restored (before it
  /// respawns), so a per-host sink never has two writers at once. nullptr
  /// results are fine (that host's events reach only the live plane);
  /// with neither a factory nor `live` the run is untraced. All hosts
  /// share one tracer, so lineage ids are unique across the cluster.
  std::function<obs::TraceSink*(NodeId)> trace_sink_factory;

  /// Driver hook fired right after each attack kill lands, before the
  /// next injection — the demo uses it to dump flight rings while the
  /// pre-attack window is still in memory. attack_index counts kills in
  /// schedule order.
  std::function<void(std::size_t attack_index, SimTime time)> on_attack;

  /// Live telemetry: when set, every host is traced and the cluster feeds
  /// the whole event stream (plus the driver's node_killed, node_restored
  /// and live_tick events) to one obs::live::LivePlane — the simulation's
  /// plane, rules and exposition format. node_count is filled in from
  /// num_hosts automatically.
  std::optional<obs::live::LiveConfig> live;
  /// Model seconds between live_tick boundaries (mirrors
  /// ScenarioConfig::live_cadence); 0 leaves only the final tick.
  double live_cadence = 1.0;
};

struct ClusterMetrics {
  std::uint64_t generated = 0;
  std::uint64_t arrivals_processed = 0;
  std::uint64_t admitted_local = 0;
  std::uint64_t admitted_migrated = 0;
  std::uint64_t rejected = 0;
  std::uint64_t transfers = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t helps = 0;
  std::uint64_t pledges = 0;
  std::uint64_t negotiations = 0;
  std::uint64_t naming_updates = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_dropped = 0;
  std::uint64_t speculative_accepted = 0;
  std::uint64_t speculative_rejected = 0;
  /// Speculations a host still held when it stopped (see HostStats).
  std::uint64_t speculative_unresolved = 0;
  std::uint64_t hosts_killed = 0;
  std::uint64_t hosts_restored = 0;
  std::uint64_t migration_latency_us = 0;
  std::uint64_t migration_latency_samples = 0;

  std::uint64_t admitted_total() const {
    return admitted_local + admitted_migrated;
  }
  /// Fig. 9 y-axis.
  double admission_probability() const;
  double migration_rate() const;
  /// Mean decision-to-registered migration latency in model seconds.
  double mean_migration_latency() const;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs the whole experiment: spawns host reactors, replays the trace in
  /// compressed wall time, drains, stops everything and aggregates.
  /// Blocking; one-shot.
  ClusterMetrics run();

  HostRuntime& host(NodeId id) { return *hosts_[id]; }
  const NamingService& naming() const { return naming_; }
  /// The live plane; nullptr unless ClusterConfig::live was set. Read it
  /// after run() returns (during a run the reactors feed it).
  obs::live::LivePlane* live() { return live_.get(); }

 private:
  /// The cluster tracer's sink: routes each event by its node to the
  /// factory-provided sink of that host, and hands every event to the
  /// live plane (one mutex serializes the reactors and the driver).
  class HostSinkRouter final : public obs::TraceSink {
   public:
    std::vector<obs::TraceSink*> sinks;  // by host id; nullptr = untraced
    obs::live::LivePlane* live = nullptr;
    void on_event(const obs::TraceEvent& event) override;
    void flush() override;

   private:
    std::mutex live_mutex_;
  };

  ClusterMetrics aggregate(std::uint64_t generated) const;

  ClusterConfig config_;
  Clock clock_;
  DatagramNetwork network_;
  NamingService naming_;
  obs::EpisodeSource episodes_;
  /// The complete overlay the protocols see; never mutated (killed hosts
  /// go silent by stopping their reactor instead).
  net::Topology topology_;
  HostSinkRouter router_;
  /// Shared by every reactor thread, so its lineage ids come from an
  /// atomic counter and stay unique across hosts.
  obs::Tracer tracer_{obs::Tracer::IdMode::kShared};
  std::vector<std::unique_ptr<HostRuntime>> hosts_;
  std::unique_ptr<obs::live::LivePlane> live_;
  bool ran_ = false;
};

}  // namespace realtor::agile
