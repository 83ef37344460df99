#include "sim/arrivals.hpp"

#include <utility>

#include "common/assert.hpp"

namespace realtor::sim {

PoissonArrivals::PoissonArrivals(Engine& engine, std::uint64_t seed,
                                 double rate, double mean_size,
                                 NodeId num_nodes, ArrivalSink sink)
    : engine_(engine),
      gaps_(seed, "poisson-gaps"),
      sizes_(seed, "task-sizes"),
      placement_(seed, "placement"),
      rate_(rate),
      mean_size_(mean_size),
      num_nodes_(num_nodes),
      sink_(std::move(sink)) {
  REALTOR_ASSERT(rate_ > 0.0);
  REALTOR_ASSERT(mean_size_ > 0.0);
  REALTOR_ASSERT(num_nodes_ > 0);
  REALTOR_ASSERT(static_cast<bool>(sink_));
}

void PoissonArrivals::start() {
  if (event_ != kInvalidEvent && engine_.pending(event_)) return;
  event_ = engine_.schedule_in(gaps_.exponential(1.0 / rate_),
                               [this] { emit(); });
}

void PoissonArrivals::stop() {
  if (event_ != kInvalidEvent) {
    engine_.cancel(event_);
    event_ = kInvalidEvent;
  }
}

void PoissonArrivals::emit() {
  Arrival arrival;
  arrival.id = next_task_++;
  arrival.time = engine_.now();
  arrival.size_seconds = sizes_.exponential(mean_size_);
  arrival.node = static_cast<NodeId>(placement_.uniform_index(num_nodes_));
  // Schedule the next arrival before delivering this one so a sink that
  // stops the process sees a consistent state.
  event_ = engine_.schedule_in(gaps_.exponential(1.0 / rate_),
                               [this] { emit(); });
  sink_(arrival);
}

std::vector<Arrival> generate_poisson_trace(std::uint64_t seed, double rate,
                                            double mean_size, NodeId num_nodes,
                                            std::size_t count) {
  REALTOR_ASSERT(rate > 0.0);
  REALTOR_ASSERT(mean_size > 0.0);
  REALTOR_ASSERT(num_nodes > 0);
  RngStream gaps(seed, "poisson-gaps");
  RngStream sizes(seed, "task-sizes");
  RngStream placement(seed, "placement");
  std::vector<Arrival> trace;
  trace.reserve(count);
  SimTime t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gaps.exponential(1.0 / rate);
    Arrival arrival;
    arrival.id = static_cast<TaskId>(i);
    arrival.time = t;
    arrival.size_seconds = sizes.exponential(mean_size);
    arrival.node = static_cast<NodeId>(placement.uniform_index(num_nodes));
    trace.push_back(arrival);
  }
  return trace;
}

}  // namespace realtor::sim
