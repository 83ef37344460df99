// Attack / failure injection.
//
// The paper motivates REALTOR with hosts coming under external attack and
// leaving the system at any time (§1, §4). FailureInjector schedules node
// kill / restore events on the simulation clock, flips topology liveness,
// and notifies listeners (the experiment drops queued work on killed nodes
// and protocols observe membership silently decaying — REALTOR itself is
// soft-state and needs no explicit notification).
#pragma once

#include <functional>
#include <vector>

#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace realtor::net {

class FailureInjector {
 public:
  /// Called after liveness flips: (node, now_alive).
  using Listener = std::function<void(NodeId, bool)>;

  FailureInjector(sim::Engine& engine, Topology& topology);

  void add_listener(Listener listener);

  /// Node goes down at `at` (idempotent if already down).
  void schedule_kill(NodeId node, SimTime at);

  /// Node comes back at `at` (idempotent if already up).
  void schedule_restore(NodeId node, SimTime at);

  std::uint64_t kills() const { return kills_; }
  std::uint64_t restores() const { return restores_; }

 private:
  void apply(NodeId node, bool alive);

  sim::Engine& engine_;
  Topology& topology_;
  std::vector<Listener> listeners_;
  std::uint64_t kills_ = 0;
  std::uint64_t restores_ = 0;
};

}  // namespace realtor::net
