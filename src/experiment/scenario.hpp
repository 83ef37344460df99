// Experiment configuration. Defaults reproduce the paper's §5 setup:
// 5x5 mesh, Poisson arrivals, exp(5 s) task sizes, 100 s queues,
// thresholds 0.9, push interval 1 s, Upper_limit / window 100, PLEDGE cost
// pinned at 4 (the paper's average-shortest-path figure), one migration try.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "admission/admission_controller.hpp"
#include "common/types.hpp"
#include "net/cost_model.hpp"
#include "net/topology.hpp"
#include "proto/config.hpp"
#include "proto/factory.hpp"

namespace realtor::experiment {

enum class TopologyKind { kMesh, kTorus, kRing, kStar, kComplete, kRandom };

struct TopologySpec {
  TopologyKind kind = TopologyKind::kMesh;
  NodeId width = 5;    // mesh/torus
  NodeId height = 5;   // mesh/torus
  NodeId nodes = 25;   // ring/star/complete/random
  std::size_t links = 40;  // random
  std::uint64_t seed = 1;  // random

  NodeId node_count() const;
};

net::Topology build_topology(const TopologySpec& spec);

/// One attack wave: `count` random nodes die at `time`; a grace period lets
/// victims evacuate resident work through the discovery protocol before
/// the cut; they recover after `outage` (0 = never).
struct AttackWave {
  SimTime time = 0.0;
  std::size_t count = 0;
  SimTime grace = 0.0;
  SimTime outage = 0.0;
};

/// Multi-resource extension (§5 footnote 3): give tasks a bandwidth share
/// and a minimum security level, and hosts a NIC capacity and a security
/// level, so discovery/admission negotiate over more than CPU. Disabled by
/// default (the paper's main experiments are CPU-only).
struct MultiResourceConfig {
  bool enabled = false;
  /// Mean of the exponential per-task NIC share (clamped to [0, 0.5]).
  double mean_bandwidth_share = 0.1;
  /// Per-host NIC capacity in shares.
  double bandwidth_capacity = 1.0;
  /// Hosts are assigned security levels 0..security_levels-1 round-robin.
  std::uint8_t security_levels = 4;
  /// Probability a task demands an elevated (uniform >=1) security level.
  double secure_task_fraction = 0.3;
};

/// Inter-neighbor-group discovery (§7 future work): floods stay inside a
/// node's neighbor group; when local discovery yields no candidate, the
/// harness escalates a solicitation through the group gateway into every
/// adjacent group (rate-limited per node).
struct FederationConfig {
  bool enabled = false;
  /// Mesh-block group dimensions; 0 x 0 falls back to id-chunk groups of
  /// `group_size` nodes (for non-mesh topologies).
  NodeId block_width = 0;
  NodeId block_height = 0;
  NodeId group_size = 25;
  /// Minimum seconds between two escalations by the same node.
  SimTime escalation_window = 10.0;
};

/// Location elusiveness (§3): components "are capable of migrating
/// frequently, which provides them with location elusiveness ... the
/// location and tracking of critical components become significantly more
/// difficult for an attacker." Every `period`, each host proactively
/// relocates its newest queued component through the discovery protocol;
/// a failed relocation keeps the component where it was.
struct ElusivenessConfig {
  bool enabled = false;
  SimTime period = 20.0;
};

struct ScenarioConfig {
  TopologySpec topology;

  /// System-wide Poisson arrival rate (tasks/second).
  double lambda = 5.0;
  /// Mean of the exponential task-size distribution (seconds).
  double mean_task_size = 5.0;
  /// Per-node queue capacity in seconds of work.
  double queue_capacity = 100.0;

  /// Simulated duration. The paper's admission curves (~0.95 at lambda=6,
  /// ~0.85 at lambda=8) are transient-regime numbers: with 100 s queues an
  /// overloaded 25-node system absorbs excess work for a few hundred
  /// seconds before rejections dominate. Durations of 250-600 s reproduce
  /// that regime; the figure benches default to 600 s.
  SimTime duration = 250.0;
  /// Metrics (not system state) reset at this instant.
  SimTime warmup = 0.0;

  std::uint64_t seed = 42;

  proto::ProtocolKind protocol_kind = proto::ProtocolKind::kRealtor;
  proto::ProtocolConfig protocol;
  admission::MigrationPolicy migration;

  net::CostMode cost_mode = net::CostMode::kPaperAverage;
  /// Pin the unicast cost (paper: 4 on the 5x5 mesh); nullopt = use the
  /// computed average path length.
  std::optional<double> fixed_unicast_cost = 4.0;
  /// How floods are charged (paper: number of links).
  net::FloodMode flood_mode = net::FloodMode::kLinks;

  /// Estimate average-path-length/diameter from a sampled subset of BFS
  /// sources on topologies of >= ~2500 alive nodes instead of the exact
  /// all-sources scan. Off by default; paper-config runs (and every
  /// golden/figure test) stay exact. Only observable when the cost model
  /// actually consults path statistics (no pinned unicast cost).
  bool approx_path_stats = false;

  /// One-way protocol-message delay (seconds); 0 keeps the paper's
  /// instantaneous-delivery accounting model.
  SimTime network_delay = 0.0;

  std::vector<AttackWave> attacks;

  MultiResourceConfig multi_resource;
  FederationConfig federation;
  ElusivenessConfig elusiveness;

  /// Period of the sampled time series; 0 disables it. Each tick appends
  /// one row to the run timeline (Simulation::timeline()) and, when a
  /// trace sink is attached, writes one node_sample record per alive node
  /// and six system_sample records (messages.cost, nodes.alive,
  /// occupancy.mean, tasks.admitted, tasks.generated, tasks.rejected) with
  /// the row's values. A run whose last tick landed before its end gets
  /// one more sample, timeline row included, at the end.
  SimTime sample_interval = 0.0;
  /// Emit one sampled engine_step trace record every N processed engine
  /// events (0 = off; disabled costs one integer test per event).
  std::uint64_t engine_sample_every = 0;
  /// Period of live_tick trace records — the window-advancement and
  /// alert-evaluation boundaries the live telemetry plane (obs/live)
  /// reacts to; 0 disables them. The recurring engine event is scheduled
  /// whether or not a sink is attached (only the emission is gated on
  /// tracing), so live-enabled and live-disabled runs of a seed stay
  /// event-for-event identical. A final tick is emitted at the run's end
  /// when the last periodic one landed earlier.
  SimTime live_cadence = 0.0;

  /// When true the internal Poisson generator stays off and the caller
  /// drives the workload through Simulation::inject() (trace replay).
  bool external_arrivals = false;
};

}  // namespace realtor::experiment
