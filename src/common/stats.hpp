// Online statistics used by the experiment harness and monitors.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace realtor {

/// Welford's online mean / variance accumulator.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Half-width of the normal-approximation 95% confidence interval of the
  /// mean; 0 for fewer than two samples.
  double ci95_halfwidth() const;

  void merge(const OnlineStats& other);
  void reset();

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Average of a piecewise-constant signal weighted by the time each value
/// was held. Used for queue occupancy and utilization traces.
class TimeWeightedStats {
 public:
  /// Record that the signal changed to `value` at time `now`. The previous
  /// value is credited for the elapsed interval.
  void update(SimTime now, double value);

  /// Close the observation window at `now` and return the time average.
  double average(SimTime now) const;

  bool empty() const { return !started_; }
  void reset();

 private:
  bool started_ = false;
  SimTime start_ = 0.0;
  SimTime last_time_ = 0.0;
  double last_value_ = 0.0;
  double weighted_sum_ = 0.0;
};

}  // namespace realtor
