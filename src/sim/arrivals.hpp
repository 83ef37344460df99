// Workload arrival processes.
//
// The paper's workload (§5): tasks arrive as a Poisson process with rate
// lambda, each with an exponentially distributed length (mean 5 s), and are
// assigned to a uniformly random node. PoissonArrivals generates the stream
// on the simulation clock; generate_poisson_trace pre-generates the same
// stream as a list (for the threaded Agile cluster and workload CSVs).
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"

namespace realtor::sim {

/// One generated task arrival, before protocol processing.
struct Arrival {
  TaskId id = 0;
  SimTime time = 0.0;
  double size_seconds = 0.0;
  NodeId node = kInvalidNode;
};

/// Sink invoked at the simulated instant of each arrival.
using ArrivalSink = std::function<void(const Arrival&)>;

class PoissonArrivals {
 public:
  /// `rate`: arrivals per second across the whole system. `mean_size`:
  /// exponential task length mean. `num_nodes`: uniform placement range.
  PoissonArrivals(Engine& engine, std::uint64_t seed, double rate,
                  double mean_size, NodeId num_nodes, ArrivalSink sink);

  /// Begins generating; the first arrival is one exponential gap from now.
  void start();
  void stop();

  std::uint64_t generated() const { return next_task_; }

 private:
  void emit();

  Engine& engine_;
  RngStream gaps_;
  RngStream sizes_;
  RngStream placement_;
  double rate_;
  double mean_size_;
  NodeId num_nodes_;
  ArrivalSink sink_;
  TaskId next_task_ = 0;
  EventId event_ = kInvalidEvent;
};

/// Pre-generates `count` arrivals with the same distributions as
/// PoissonArrivals — used to run byte-identical workloads through multiple
/// protocol configurations or through the Agile cluster.
std::vector<Arrival> generate_poisson_trace(std::uint64_t seed, double rate,
                                            double mean_size, NodeId num_nodes,
                                            std::size_t count);

}  // namespace realtor::sim
