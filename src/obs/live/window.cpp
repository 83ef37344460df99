#include "obs/live/window.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace realtor::obs::live {

void SlidingWindow::Bucket::clear() {
  count = 0;
  sum = 0.0;
  min = 0.0;
  max = 0.0;
  if (reservoir != nullptr) reservoir->reset();
}

void SlidingWindow::Bucket::observe(double value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  if (reservoir != nullptr) reservoir->observe(value);
}

SlidingWindow::SlidingWindow(SimTime span, std::size_t buckets,
                             std::size_t reservoir_per_bucket)
    : span_(span),
      bucket_span_(span / static_cast<double>(buckets == 0 ? 1 : buckets)),
      ring_(buckets == 0 ? 1 : buckets) {
  REALTOR_ASSERT_MSG(span > 0.0, "window span must be positive");
  if (reservoir_per_bucket > 0) {
    reservoirs_.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      reservoirs_.emplace_back(reservoir_per_bucket);
      ring_[i].reservoir = &reservoirs_[i];
    }
  }
}

void SlidingWindow::advance(SimTime now) {
  // Most calls come from observe() inside the newest bucket; they return
  // here without the division.
  if (now < next_edge_) return;
  const std::int64_t target =
      static_cast<std::int64_t>(std::floor(now / bucket_span_));
  if (target <= current_) return;
  // Clear every bucket the window slid past; a long quiet gap clears the
  // whole ring at most once.
  const std::int64_t size = static_cast<std::int64_t>(ring_.size());
  const std::int64_t stale = std::min<std::int64_t>(target - current_, size);
  for (std::int64_t i = 0; i < stale; ++i) {
    ring_[static_cast<std::size_t>((target - i) % size)].clear();
  }
  current_ = target;
  newest_ = static_cast<std::size_t>(target % size);
  // Times before next_edge_ skip the division above. Step the product
  // down until the time just below it maps to `target` or lower:
  // division rounds monotonically, so every earlier time does too.
  const double last = static_cast<double>(target);
  double edge = (last + 1.0) * bucket_span_;
  for (double below = std::nextafter(edge, 0.0);
       std::floor(below / bucket_span_) > last;
       below = std::nextafter(edge, 0.0)) {
    edge = below;
  }
  next_edge_ = edge;
}

void SlidingWindow::observe(SimTime now, double value) {
  advance(now);
  ring_[newest_].observe(value);
}

WindowSnapshot SlidingWindow::snapshot() const {
  WindowSnapshot out;
  for (const Bucket& bucket : ring_) {
    if (bucket.count == 0) continue;
    if (out.count == 0) {
      out.min = bucket.min;
      out.max = bucket.max;
    } else {
      out.min = std::min(out.min, bucket.min);
      out.max = std::max(out.max, bucket.max);
    }
    out.count += bucket.count;
    out.sum += bucket.sum;
  }
  return out;
}

double SlidingWindow::quantile(double q) const {
  if (reservoirs_.empty() || current_ < 0) return 0.0;
  // Merge oldest-to-newest so the retained sample (and therefore the
  // quantile) is independent of the ring's physical layout.
  Histogram rollup(reservoirs_.size() * reservoirs_[0].capacity());
  const std::int64_t n = static_cast<std::int64_t>(ring_.size());
  for (std::int64_t age = n - 1; age >= 0; --age) {
    const std::int64_t index = current_ - age;
    if (index < 0) continue;
    rollup.merge(*ring_[static_cast<std::size_t>(index % n)].reservoir);
  }
  return rollup.quantile(q);
}

double SlidingWindow::rate(SimTime now) const {
  const double elapsed = std::min(span_, now);
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(snapshot().count) / elapsed;
}

TailWindow::TailWindow(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void TailWindow::observe(double value) {
  if (ring_.size() < capacity_) {
    ring_.push_back(value);
  } else {
    ring_[next_] = value;
  }
  next_ = (next_ + 1) % capacity_;
  ++seen_;
}

WindowSnapshot TailWindow::snapshot() const {
  WindowSnapshot out;
  for (const double value : ring_) {
    if (out.count == 0) {
      out.min = value;
      out.max = value;
    } else {
      out.min = std::min(out.min, value);
      out.max = std::max(out.max, value);
    }
    ++out.count;
    out.sum += value;
  }
  return out;
}

}  // namespace realtor::obs::live
