// Threshold-crossing detector.
//
// Both Algorithm H ("resource usage would exceed a threshold level") and
// Algorithm P ("whenever the resource availability changes across the
// threshold level") are driven by the occupancy signal crossing a fixed
// level. The detector is edge-triggered: it reports a crossing only when
// the side of the threshold changes between consecutive samples, which is
// what keeps adaptive-PUSH traffic proportional to status *changes* rather
// than to load itself.
#pragma once

namespace realtor::node {

enum class Crossing {
  kNone,  // same side as the previous sample
  kUp,    // below -> at-or-above threshold
  kDown,  // at-or-above -> below threshold
};

class ThresholdDetector {
 public:
  explicit ThresholdDetector(double threshold);

  /// Feeds the next occupancy sample; the first sample sets the initial
  /// side and never reports a crossing.
  Crossing update(double value);

  double threshold() const { return threshold_; }
  /// Side of the last sample (false until the first sample arrives).
  bool above() const { return above_; }
  bool primed() const { return primed_; }

  void reset();

 private:
  double threshold_;
  bool primed_ = false;
  bool above_ = false;
};

}  // namespace realtor::node
