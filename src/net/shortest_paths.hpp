// Hop distances over the alive subgraph, computed lazily.
//
// Nothing is computed until asked, and any topology change simply
// invalidates the caches, which every query checks first. Three kinds of
// query share one instance:
//   * Rows. row() runs one whole-graph BFS per source and caches the row
//     (up to 64, keyed by Topology::version()) for flood fan-out, which
//     needs every destination's distance. average_path_length()/diameter()
//     stream per-source rows only when the cost model asks (exact by
//     default, with an opt-in sampled estimator for large topologies that
//     paper-config runs never enable).
//   * Components. connected() and reachable() read component labels that
//     one pass over the alive subgraph computes per topology version.
//   * Point queries. hops(a, b) answers from a cached row of either
//     endpoint (the graph is undirected); otherwise it runs a
//     bidirectional BFS that stops on the first level where the two
//     frontiers meet, or as soon as either frontier empties. Its visit
//     marks are epoch-stamped, so a query never pays O(N) to reset them,
//     and it caches nothing: exact-hop unicasts rotate over far more
//     sources than any row cache holds.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/topology.hpp"

namespace realtor::net {

inline constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};

class ShortestPaths {
 public:
  /// Binds to `topology` without computing anything; distances materialize
  /// on first query and track liveness changes automatically.
  explicit ShortestPaths(const Topology& topology);

  /// Hop count between alive nodes; kUnreachable if disconnected or if
  /// either endpoint is dead. A point query: never caches a row.
  std::uint32_t hops(NodeId from, NodeId to) const;

  /// Distance row for `src` (indexable by destination, num_nodes wide).
  /// Computed by one BFS and cached; the pointer is valid until the next
  /// topology change or cache eviction — consume it before issuing other
  /// queries. Lets flood loops resolve N-1 destinations with one lookup.
  const std::uint32_t* row(NodeId src) const;

  /// True when both nodes are alive and in the same component of the
  /// alive subgraph, i.e. hops(from, to) != kUnreachable. O(1) after one
  /// labelling pass per topology version.
  bool reachable(NodeId from, NodeId to) const;

  /// Mean hop count over all ordered pairs of distinct, mutually reachable
  /// alive nodes. On the paper's 5x5 mesh this is ~3.33; the paper rounds
  /// the per-PLEDGE cost to 4. Exact unless the sampled estimator is
  /// enabled and the topology is large.
  double average_path_length() const;

  /// Longest finite shortest path (a lower bound when sampling).
  std::uint32_t diameter() const;

  /// True when every pair of alive nodes is mutually reachable.
  bool connected() const;

  /// Opt-in sampled path statistics: when enabled and the alive population
  /// reaches `min_nodes`, average_path_length()/diameter() BFS only
  /// `sources` evenly-strided alive sources instead of all of them.
  /// Deterministic (no RNG). Off by default — paper-config runs and the
  /// golden tests always take the exact path.
  void set_sampled_stats(bool enabled, NodeId min_nodes = 2500,
                         NodeId sources = 64);

  /// True if the most recent stats computation used sampling.
  bool stats_sampled() const { return stats_sampled_; }

 private:
  /// Invalidates caches if the topology moved on; updates version_.
  void sync() const;
  /// BFS from `src` into `dist` (resized/reset inside).
  void bfs(NodeId src, std::vector<std::uint32_t>& dist) const;
  /// Returns the cached row for `src`, computing it if absent.
  const std::vector<std::uint32_t>& row_for(NodeId src) const;
  /// Bidirectional BFS between distinct alive nodes; caches nothing.
  std::uint32_t point_search(NodeId from, NodeId to) const;
  /// Labels the components of the alive subgraph, once per version.
  void ensure_components() const;
  void ensure_stats() const;

  /// Row-cache capacity: enough for every concurrent flood origin in a
  /// burst without approaching all-pairs memory at N=10k.
  static constexpr std::size_t kMaxCachedRows = 64;

  const Topology& topology_;
  /// Topology version the caches were computed against.
  mutable std::uint64_t version_ = 0;

  mutable std::unordered_map<NodeId, std::vector<std::uint32_t>> rows_;
  mutable std::vector<std::vector<std::uint32_t>> spare_rows_;

  mutable bool stats_valid_ = false;
  mutable double average_path_length_ = 0.0;
  mutable std::uint32_t diameter_ = 0;
  mutable bool stats_sampled_ = false;

  mutable bool components_valid_ = false;
  mutable std::uint32_t component_count_ = 0;
  /// Component id per node; kUnreachable for dead nodes.
  mutable std::vector<std::uint32_t> component_;

  bool sampling_enabled_ = false;
  NodeId sampling_min_nodes_ = 2500;
  NodeId sampling_sources_ = 64;

  // Scratch for BFS frontiers; reused across queries. The point search
  // uses frontier_ for the side at `from`, back_frontier_ for the side at
  // `to`, and next_frontier_ for the level being built.
  mutable std::vector<NodeId> frontier_;
  mutable std::vector<NodeId> back_frontier_;
  mutable std::vector<NodeId> next_frontier_;

  /// Point-search marks from the `from` side ([0]) and the `to` side
  /// ([1]): side s has reached node v iff marks_[s][v] == epoch_. Never
  /// cleared between searches; only an epoch_ wrap resets them.
  mutable std::vector<std::uint32_t> marks_[2];
  mutable std::uint32_t epoch_ = 0;
};

}  // namespace realtor::net
