// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Ingest validation firewall: the first thing a reading meets at a node.
//
// The paper assumes readings normalized into [0,1]^d (Section 4); a real
// mote delivers NaN from a disconnected probe, +/-Inf from a saturated ADC,
// and frozen repeats from a stuck transducer. Feeding such values into the
// chain sample poisons the density model for a full window — far worse than
// dropping the reading — so every detector node screens its raw stream
// through an IngestValidator before the model sees it. Branch et al.
// ("In-Network Outlier Detection in Wireless Sensor Networks") motivate
// treating dirty ingest as a first-class fault alongside message loss.
//
// Stuck-at runs are a *model* judgement (a constant can be legitimate), so
// quarantine for them lives with the other model-divergence checks in
// core/faulty_sensor.h (StuckSensorDetector); this layer handles only the
// value-level checks that need no history beyond the previous reading.

#ifndef SENSORD_DATA_VALIDATE_H_
#define SENSORD_DATA_VALIDATE_H_

#include <cstdint>
#include <limits>

#include "util/math_utils.h"

namespace sensord {

/// What the firewall enforces beyond its fixed rule: readings containing NaN
/// or +/-Inf coordinates are always rejected, because the density model's
/// canonical sample order requires finite coordinates. The defaults accept
/// every finite reading, so a validator with a default policy is
/// behavior-neutral on clean data.
struct IngestPolicy {
  /// Closed range every coordinate must lie in. The defaults are infinite
  /// (no range check); deployments with normalized streams set [0, 1].
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  /// Consecutive identical readings after which the stream is quarantined
  /// as stuck. 0 disables the check. Enforced by core's StuckSensorDetector,
  /// not by IngestValidator::Check — carried here so one policy struct
  /// configures the whole firewall.
  uint64_t stuck_run_threshold = 0;
};

/// Verdict for one reading.
enum class IngestVerdict {
  kAccept = 0,
  kNonFinite,   ///< some coordinate is NaN or +/-Inf
  kOutOfRange,  ///< some coordinate outside [min_value, max_value]
};

/// Stateless per-reading screen (the stuck check, which needs history, is
/// core/faulty_sensor.h's StuckSensorDetector). One instance per node;
/// Check() is O(d) with no allocation.
class IngestValidator {
 public:
  explicit IngestValidator(const IngestPolicy& policy);

  /// Screens one reading. Counts the verdict into the global ingest.*
  /// metrics and this instance's accepted()/rejected() tallies.
  IngestVerdict Check(const Point& reading);

  const IngestPolicy& policy() const { return policy_; }
  uint64_t accepted() const { return accepted_; }
  uint64_t rejected() const { return rejected_; }

 private:
  IngestPolicy policy_;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace sensord

#endif  // SENSORD_DATA_VALIDATE_H_
