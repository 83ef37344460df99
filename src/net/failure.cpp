#include "net/failure.hpp"

#include <utility>

#include "common/assert.hpp"

namespace realtor::net {

FailureInjector::FailureInjector(sim::Engine& engine, Topology& topology)
    : engine_(engine), topology_(topology) {}

void FailureInjector::add_listener(Listener listener) {
  REALTOR_ASSERT(static_cast<bool>(listener));
  listeners_.push_back(std::move(listener));
}

void FailureInjector::schedule_kill(NodeId node, SimTime at) {
  REALTOR_ASSERT(node < topology_.num_nodes());
  engine_.schedule_at(at, [this, node] { apply(node, false); });
}

void FailureInjector::schedule_restore(NodeId node, SimTime at) {
  REALTOR_ASSERT(node < topology_.num_nodes());
  engine_.schedule_at(at, [this, node] { apply(node, true); });
}

void FailureInjector::apply(NodeId node, bool alive) {
  if (topology_.alive(node) == alive) return;  // idempotent
  topology_.set_alive(node, alive);
  if (alive) {
    ++restores_;
  } else {
    ++kills_;
  }
  for (const auto& listener : listeners_) {
    listener(node, alive);
  }
}

}  // namespace realtor::net
