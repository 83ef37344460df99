// Message-cost model in the paper's accounting units.
//
// Two modes:
//   * kPaperAverage — the §5 convention: a flood costs the number of
//     (alive) links; a unicast costs the topology-wide average shortest
//     path length. The paper uses 4 for the 5x5 mesh; set
//     `fixed_unicast_cost` to pin that value.
//   * kExactHops — a unicast costs the exact hop distance between the two
//     endpoints (used by ablations to check the averaging assumption,
//     which the paper asserts "does not affect the performance
//     comparison").
#pragma once

#include <optional>

#include "net/shortest_paths.hpp"
#include "net/topology.hpp"

namespace realtor::net {

enum class CostMode { kPaperAverage, kExactHops };

/// How a flood is charged: the paper counts "the number of links"; a
/// spanning-tree dissemination (each node forwards once) costs N-1
/// messages instead. §5 asserts the choice "does not affect the
/// performance comparison" — the cost-model ablation verifies that.
enum class FloodMode { kLinks, kSpanningTree };

class CostModel {
 public:
  CostModel(const Topology& topology, CostMode mode,
            std::optional<double> fixed_unicast_cost = std::nullopt,
            FloodMode flood_mode = FloodMode::kLinks);

  /// Cost of flooding the overlay from an alive origin (HELP / PUSH advert).
  double flood_cost() const;

  /// Cost of a unicast reply or request between two alive nodes.
  double unicast_cost(NodeId from, NodeId to) const;

  CostMode mode() const { return mode_; }
  FloodMode flood_mode() const { return flood_mode_; }

  /// The simulation's one shortest-path table. The transport borrows it
  /// for flood rows and partition checks, so every layer shares one
  /// cache and one set of search scratch arrays.
  const ShortestPaths& paths() const { return paths_; }

  /// Opt-in sampled average-path/diameter estimation for large topologies
  /// (forwarded to ShortestPaths::set_sampled_stats). Paper-config runs
  /// leave this off and always get exact statistics.
  void set_approx_path_stats(bool enabled) {
    paths_.set_sampled_stats(enabled);
  }

 private:
  const Topology& topology_;
  CostMode mode_;
  std::optional<double> fixed_unicast_cost_;
  FloodMode flood_mode_;
  mutable ShortestPaths paths_;
};

}  // namespace realtor::net
