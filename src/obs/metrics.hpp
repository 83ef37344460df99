// Streaming distribution with deterministic, mergeable quantiles — the
// one metric type spans, the scorecard, critical paths and the live
// windows share.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"

namespace realtor::obs {

/// Streaming distribution: count/mean/min/max via common OnlineStats plus
/// quantiles from a bounded reservoir. While the sample count stays within
/// the reservoir capacity every observation is retained and quantile() is
/// exact; past capacity the reservoir degrades gracefully to uniform
/// subsampling (Vitter's Algorithm R) driven by a deterministic internal
/// generator, so two runs that observe the same sequence report identical
/// quantiles. Not thread-safe — histograms are owned by single-threaded
/// analysis paths (episode summaries, live windows).
class Histogram {
 public:
  static constexpr std::size_t kDefaultReservoir = 4096;

  explicit Histogram(std::size_t reservoir_capacity = kDefaultReservoir)
      : capacity_(reservoir_capacity == 0 ? 1 : reservoir_capacity) {}

  void observe(double value);
  const OnlineStats& stats() const { return stats_; }

  /// Folds `other` into this histogram. count/sum/min/max merge exactly
  /// (OnlineStats::merge); the reservoirs are concatenated and, when the
  /// union exceeds this histogram's capacity, downsampled by an even
  /// stride over the union sorted by (value, seq) — a pure function of
  /// the two reservoirs, so merge order and thread scheduling can never
  /// change the merged quantiles. Windowed rollups (obs::live) merge
  /// per-bucket histograms this way instead of re-ingesting raw samples.
  void merge(const Histogram& other);

  /// Quantile in [0, 1] by linear interpolation over the reservoir
  /// (exact while count() <= reservoir capacity). 0.0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  std::size_t reservoir_size() const { return reservoir_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// True while quantile() reflects every observation.
  bool exact() const { return stats_.count() <= capacity_; }

  void reset();

 private:
  OnlineStats stats_;
  std::size_t capacity_;
  std::vector<double> reservoir_;
  /// Observation index (1-based, parallel to reservoir_) of each retained
  /// sample — the deterministic tie-break merge() sorts by.
  std::vector<std::uint64_t> seqs_;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace realtor::obs
