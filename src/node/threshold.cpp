#include "node/threshold.hpp"

#include "common/assert.hpp"

namespace realtor::node {

ThresholdDetector::ThresholdDetector(double threshold)
    : threshold_(threshold) {
  REALTOR_ASSERT(threshold_ > 0.0);
}

Crossing ThresholdDetector::update(double value) {
  const bool now_above = value >= threshold_;
  if (!primed_) {
    primed_ = true;
    above_ = now_above;
    return Crossing::kNone;
  }
  if (now_above == above_) return Crossing::kNone;
  above_ = now_above;
  return now_above ? Crossing::kUp : Crossing::kDown;
}

void ThresholdDetector::reset() {
  primed_ = false;
  above_ = false;
}

}  // namespace realtor::node
