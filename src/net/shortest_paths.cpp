#include "net/shortest_paths.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/profile.hpp"

namespace realtor::net {

ShortestPaths::ShortestPaths(const Topology& topology)
    : topology_(topology), version_(topology.version()) {}

void ShortestPaths::sync() const {
  if (version_ == topology_.version()) return;
  for (auto& [src, dist] : rows_) {
    spare_rows_.push_back(std::move(dist));
  }
  rows_.clear();
  stats_valid_ = false;
  components_valid_ = false;
  version_ = topology_.version();
}

void ShortestPaths::bfs(NodeId src, std::vector<std::uint32_t>& dist) const {
  obs::ProfileScope scope("net/shortest_paths_bfs");
  const NodeId n = topology_.num_nodes();
  dist.assign(n, kUnreachable);
  if (!topology_.alive(src)) return;
  dist[src] = 0;
  frontier_.clear();
  frontier_.push_back(src);
  std::uint32_t depth = 0;
  while (!frontier_.empty()) {
    ++depth;
    next_frontier_.clear();
    for (const NodeId u : frontier_) {
      for (const NodeId v : topology_.neighbors(u)) {
        if (!topology_.alive(v) || dist[v] != kUnreachable) continue;
        dist[v] = depth;
        next_frontier_.push_back(v);
      }
    }
    frontier_.swap(next_frontier_);
  }
}

const std::vector<std::uint32_t>& ShortestPaths::row_for(NodeId src) const {
  REALTOR_ASSERT(src < topology_.num_nodes());
  sync();
  const auto it = rows_.find(src);
  if (it != rows_.end()) return it->second;
  if (rows_.size() >= kMaxCachedRows) {
    // Flood origins rotate; a full reset is simpler than LRU bookkeeping
    // and just as effective at this cache size.
    for (auto& [s, dist] : rows_) {
      spare_rows_.push_back(std::move(dist));
    }
    rows_.clear();
  }
  std::vector<std::uint32_t> dist;
  if (!spare_rows_.empty()) {
    dist = std::move(spare_rows_.back());
    spare_rows_.pop_back();
  }
  bfs(src, dist);
  return rows_.emplace(src, std::move(dist)).first->second;
}

std::uint32_t ShortestPaths::hops(NodeId from, NodeId to) const {
  REALTOR_ASSERT(from < topology_.num_nodes());
  REALTOR_ASSERT(to < topology_.num_nodes());
  if (!topology_.alive(from) || !topology_.alive(to)) return kUnreachable;
  if (from == to) return 0;
  sync();
  // The graph is undirected, so either endpoint's cached row holds the
  // answer.
  if (const auto it = rows_.find(from); it != rows_.end()) {
    return it->second[to];
  }
  if (const auto it = rows_.find(to); it != rows_.end()) {
    return it->second[from];
  }
  return point_search(from, to);
}

std::uint32_t ShortestPaths::point_search(NodeId from, NodeId to) const {
  obs::ProfileScope scope("net/shortest_paths_bfs");
  const NodeId n = topology_.num_nodes();
  if (++epoch_ == 0 || marks_[0].size() != n) {
    // First search or a wrapped epoch: every old mark must read as
    // unvisited again.
    for (std::vector<std::uint32_t>& side : marks_) side.assign(n, 0);
    epoch_ = 1;
  }
  const std::uint32_t epoch = epoch_;
  std::vector<NodeId>* const frontiers[2] = {&frontier_, &back_frontier_};
  std::uint32_t depths[2] = {0, 0};
  marks_[0][from] = epoch;
  marks_[1][to] = epoch;
  frontier_.assign(1, from);
  back_frontier_.assign(1, to);
  while (!frontier_.empty() && !back_frontier_.empty()) {
    // Expand the smaller frontier by one whole level.
    const int side = back_frontier_.size() < frontier_.size() ? 1 : 0;
    std::uint32_t* const mine = marks_[side].data();
    const std::uint32_t* const theirs = marks_[1 - side].data();
    const std::uint32_t depth = ++depths[side];
    next_frontier_.clear();
    for (const NodeId u : *frontiers[side]) {
      for (const NodeId v : topology_.neighbors(u)) {
        if (!topology_.alive(v)) continue;
        // The first touch is a shortest path, and `v` lies on the other
        // side's last level: no node was marked by both sides before this
        // level, so every node the other side reached earlier has all its
        // neighbors marked by that side, none of them on this frontier.
        if (theirs[v] == epoch) return depth + depths[1 - side];
        if (mine[v] == epoch) continue;
        mine[v] = epoch;
        next_frontier_.push_back(v);
      }
    }
    frontiers[side]->swap(next_frontier_);
  }
  return kUnreachable;
}

const std::uint32_t* ShortestPaths::row(NodeId src) const {
  return row_for(src).data();
}

void ShortestPaths::ensure_components() const {
  sync();
  if (components_valid_) return;
  obs::ProfileScope scope("net/shortest_paths_bfs");
  const NodeId n = topology_.num_nodes();
  component_.assign(n, kUnreachable);
  component_count_ = 0;
  for (NodeId root = 0; root < n; ++root) {
    if (!topology_.alive(root) || component_[root] != kUnreachable) continue;
    const std::uint32_t id = component_count_++;
    component_[root] = id;
    frontier_.assign(1, root);
    while (!frontier_.empty()) {
      const NodeId u = frontier_.back();
      frontier_.pop_back();
      for (const NodeId v : topology_.neighbors(u)) {
        if (!topology_.alive(v) || component_[v] != kUnreachable) continue;
        component_[v] = id;
        frontier_.push_back(v);
      }
    }
  }
  components_valid_ = true;
}

bool ShortestPaths::reachable(NodeId from, NodeId to) const {
  REALTOR_ASSERT(from < topology_.num_nodes());
  REALTOR_ASSERT(to < topology_.num_nodes());
  ensure_components();
  return component_[from] != kUnreachable &&
         component_[from] == component_[to];
}

bool ShortestPaths::connected() const {
  ensure_components();
  return component_count_ <= 1;
}

void ShortestPaths::ensure_stats() const {
  sync();
  if (stats_valid_) return;

  const NodeId n = topology_.num_nodes();
  const std::size_t alive = topology_.alive_count();
  const bool sample =
      sampling_enabled_ && alive >= static_cast<std::size_t>(sampling_min_nodes_);
  // Deterministic evenly-strided source subset when sampling; every alive
  // source otherwise.
  const std::size_t stride =
      sample ? std::max<std::size_t>(
                   1, alive / static_cast<std::size_t>(sampling_sources_))
             : 1;

  double sum = 0.0;
  std::uint64_t pairs = 0;
  std::uint32_t diameter = 0;
  std::vector<std::uint32_t> dist;
  if (!spare_rows_.empty()) {
    dist = std::move(spare_rows_.back());
    spare_rows_.pop_back();
  }
  std::size_t alive_index = 0;
  for (NodeId src = 0; src < n; ++src) {
    if (!topology_.alive(src)) continue;
    const bool take = alive_index % stride == 0;
    ++alive_index;
    if (!take) continue;
    bfs(src, dist);
    for (NodeId v = 0; v < n; ++v) {
      if (v == src || !topology_.alive(v)) continue;
      const std::uint32_t d = dist[v];
      if (d == kUnreachable) continue;
      sum += d;
      ++pairs;
      if (d > diameter) diameter = d;
    }
  }
  spare_rows_.push_back(std::move(dist));

  average_path_length_ = pairs > 0 ? sum / static_cast<double>(pairs) : 0.0;
  diameter_ = diameter;
  stats_sampled_ = sample;
  stats_valid_ = true;
}

double ShortestPaths::average_path_length() const {
  ensure_stats();
  return average_path_length_;
}

std::uint32_t ShortestPaths::diameter() const {
  ensure_stats();
  return diameter_;
}

void ShortestPaths::set_sampled_stats(bool enabled, NodeId min_nodes,
                                      NodeId sources) {
  REALTOR_ASSERT(sources > 0);
  sampling_enabled_ = enabled;
  sampling_min_nodes_ = min_nodes;
  sampling_sources_ = sources;
  stats_valid_ = false;
}

}  // namespace realtor::net
