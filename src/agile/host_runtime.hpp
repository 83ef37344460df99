// One Agile Objects host: a reactor thread running a discovery protocol
// over the in-process channels, a bounded work queue measured in seconds,
// a Constant Utilization Server assigning EDF deadlines, and a thread-safe
// admission RPC (the paper's TCP negotiation between Admission Controls).
//
// The protocol is a proto::DiscoveryProtocol from proto::make_protocol —
// the same state machines the discrete-event Simulation runs. Each host
// owns a private sim::Engine and uses it as its only timer queue: Algorithm
// H timeouts, periodic adverts and gossip rounds (sim::Timer,
// sim::PeriodicProcess) and pending task completions are all engine
// events. Before it handles a datagram the reactor advances the engine to
// clock.now(), then sleeps until the engine's next event time or the next
// datagram. Cluster::run() starts every engine at model time 0 and holds
// the reactors at a start gate until it has set the clock's epoch, so no
// engine ever runs ahead of the clock.
//
// Threading model (guides CP.2/CP.3): the engine, the protocol and all its
// soft state are confined to the reactor thread. start() builds them
// before the thread spawns and restart() rebuilds them after it joined,
// so no other thread touches them. The only shared mutable state is the
// admission account (mutex), the per-host statistics (atomics), the
// channels, and the cluster's tracer and episode counter (atomic ids).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "agile/channel.hpp"
#include "agile/clock.hpp"
#include "agile/naming.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "proto/config.hpp"
#include "proto/factory.hpp"
#include "proto/transport.hpp"
#include "sched/cus.hpp"
#include "sim/engine.hpp"

namespace realtor::agile {

struct HostConfig {
  NodeId id = 0;
  /// Fig. 9 uses queue_size = 50 (half the simulation's 100).
  double queue_capacity = 50.0;
  proto::ProtocolConfig protocol;
  /// Which discovery scheme this runtime speaks. The paper's measurement
  /// runs REALTOR; the other four make Fig. 9 a measured comparison.
  proto::ProtocolKind discovery = proto::ProtocolKind::kRealtor;
  /// Candidates tried per migration (paper: one-time try).
  std::uint32_t max_tries = 1;
  /// One-way propagation delay in model seconds; charged on the two RPC
  /// legs of a sequential migration (the datagram network delays the
  /// transfer itself).
  SimTime network_delay = 0.0;
  /// §3 speculative migration: ship the component state together with the
  /// admission request instead of after the negotiation.
  bool speculative_migration = false;
};

/// Concurrency-safe counters; snapshot with relaxed loads after the run.
struct HostStats {
  std::atomic<std::uint64_t> arrivals{0};
  std::atomic<std::uint64_t> admitted_local{0};
  std::atomic<std::uint64_t> admitted_migrated{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> transfers_in{0};
  std::atomic<std::uint64_t> completions{0};
  std::atomic<std::uint64_t> deadline_misses{0};
  std::atomic<std::uint64_t> helps_sent{0};
  std::atomic<std::uint64_t> pledges_sent{0};
  std::atomic<std::uint64_t> negotiation_calls{0};
  std::atomic<std::uint64_t> speculative_accepted{0};
  std::atomic<std::uint64_t> speculative_rejected{0};
  /// Speculations still awaiting their SpeculativeResult when stop()
  /// joined the reactor: counted in arrivals, never admitted or rejected.
  std::atomic<std::uint64_t> speculative_unresolved{0};
  /// Decision-to-registered migration latency, accumulated at the
  /// *destination* in model microseconds (mean = sum / count).
  std::atomic<std::uint64_t> migration_latency_us{0};
  std::atomic<std::uint64_t> migration_latency_samples{0};
};

class HostRuntime : private proto::Transport {
 public:
  /// Resolves a peer id to its runtime for the admission RPC; returns
  /// nullptr for unknown/down peers.
  using PeerResolver = std::function<HostRuntime*(NodeId)>;

  /// Granted reservation from the admission RPC: the work is booked, the
  /// CUS deadline assigned; the component state must follow via
  /// TaskTransfer.
  struct Reservation {
    SimTime completion_time = 0.0;
    SimTime deadline = 0.0;
  };

  /// `shared` carries the cluster-wide part of the protocol environment:
  /// topology, seed, and the optional tracer and episode source. A traced
  /// host's tracer is shared by every reactor thread, so its sink must be
  /// thread-safe. The engine, transport and occupancy fields are filled in
  /// per incarnation.
  HostRuntime(const HostConfig& config, const Clock& clock,
              DatagramNetwork& network, NamingService& naming,
              proto::ProtocolEnv shared, PeerResolver peers);
  ~HostRuntime();
  HostRuntime(const HostRuntime&) = delete;
  HostRuntime& operator=(const HostRuntime&) = delete;

  /// Builds a new incarnation and spawns its reactor. With a `gate` the
  /// engine starts at model time 0 and the reactor waits on the gate
  /// before it first advances the engine; Cluster::run() opens it once
  /// the clock's epoch is set. Without one the engine starts at the
  /// clock's current reading.
  void start(std::latch* gate = nullptr);
  void stop();

  /// Restarts a stopped host with cold state (recovery after an attack
  /// outage): a fresh engine and protocol, an empty queue. Resident
  /// components of the previous incarnation are lost, exactly like a
  /// killed machine.
  void restart();

  NodeId id() const { return config_.id; }

  /// Thread-safe admission RPC (callable from any host's reactor): books
  /// `size_seconds` of work if it fits the queue, assigns the CUS/EDF
  /// deadline, and returns the reservation.
  std::optional<Reservation> request_admission(double size_seconds);

  /// Current queue occupancy in [0, 1]; thread-safe.
  double occupancy() const;

  const HostStats& stats() const { return stats_; }

 private:
  enum class MigrateStatus { kMigrated, kRejected, kInFlight };

  // proto::Transport: the protocol's flood/unicast ride the datagram
  // network, counted on the per-host channel stats.
  void flood(NodeId origin, const proto::Message& msg) override;
  void unicast(NodeId from, NodeId to, const proto::Message& msg) override;
  void count_sent(const proto::Message& msg);

  void reactor();
  void handle(const Datagram& datagram);
  void handle_arrival(const TaskArrival& arrival);
  void handle_transfer(const TaskTransfer& transfer);
  void handle_speculative(NodeId from, const SpeculativeTransfer& transfer);
  void handle_speculative_result(const SpeculativeResult& result);
  MigrateStatus try_migrate(const TaskArrival& arrival);
  void record_migration_latency(SimTime decision_time);
  /// Books the completion of an admitted component as an engine event.
  void schedule_completion(TaskId task, const Reservation& booked);
  void complete(TaskId task, const Reservation& booked);
  bool tracing() const {
    return env_.tracer != nullptr && env_.tracer->active();
  }
  obs::TraceEvent trace_event(obs::EventKind kind) const {
    return obs::TraceEvent(engine_->now(), config_.id, kind);
  }
  void trace(const obs::TraceEvent& event) const { env_.tracer->emit(event); }
  /// Traces an admission decision where its HostStats counter is bumped,
  /// in the simulation's shape: task_admit_migrated and task_rejected
  /// carry `episode`, the discovery episode current when the migration
  /// was decided (the key the live plane closes); task_admit_local
  /// carries none. No lineage id, so critical-path terminals stay the
  /// protocol's.
  void trace_decision(obs::EventKind kind, TaskId task,
                      std::uint64_t episode = 0) const;

  HostConfig config_;
  const Clock& clock_;
  DatagramNetwork& network_;
  NamingService& naming_;
  proto::ProtocolEnv env_;
  PeerResolver peers_;

  // Shared admission state (RPC from peer reactors + local admits).
  mutable std::mutex admit_mutex_;
  SimTime finish_time_ = 0.0;  // instant all booked work completes
  sched::ConstantUtilizationServer cus_{1.0};

  // Reactor-confined incarnation state, rebuilt by start(). The protocol
  // is declared after the engine so it (and its timers) dies first.
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<proto::DiscoveryProtocol> protocol_;
  /// An outstanding speculative migration, resolved by SpeculativeResult.
  struct Speculation {
    NodeId target = kInvalidNode;
    double fraction = 0.0;  // capacity fraction of the component
    /// Discovery episode current at dispatch; arrivals handled before the
    /// reply may open newer ones.
    std::uint64_t episode = 0;
  };
  std::unordered_map<TaskId, Speculation> speculations_;

  HostStats stats_;
  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace realtor::agile
