#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace realtor {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::mean() const { return n_ > 0 ? mean_ : 0.0; }

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const { return n_ > 0 ? min_ : 0.0; }

double OnlineStats::max() const { return n_ > 0 ? max_ : 0.0; }

double OnlineStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void OnlineStats::reset() { *this = OnlineStats{}; }

void TimeWeightedStats::update(SimTime now, double value) {
  if (!started_) {
    started_ = true;
    start_ = now;
  } else {
    REALTOR_ASSERT_MSG(now >= last_time_, "time must be monotone");
    weighted_sum_ += last_value_ * (now - last_time_);
  }
  last_time_ = now;
  last_value_ = value;
}

double TimeWeightedStats::average(SimTime now) const {
  if (!started_ || now <= start_) return 0.0;
  const double sum = weighted_sum_ + last_value_ * (now - last_time_);
  return sum / (now - start_);
}

void TimeWeightedStats::reset() { *this = TimeWeightedStats{}; }

}  // namespace realtor
