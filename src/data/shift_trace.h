// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The distribution-shift workload of Figure 6.
//
// "We consider Gaussian distributions and vary the underlying distribution
//  after every 4096 measurements (from mu = 0.3, sigma = 0.05 to mu = 0.5,
//  sigma = 0.05) to measure the latency with which the sensors adjust to the
//  changes in distribution." (Section 10.1)
//
// The stream alternates between the two phases forever; IsPhaseA() and
// TrueDistributionAt() tell the experiment which distribution generated a
// given reading so it can compute the JS divergence against the right truth.

#ifndef SENSORD_DATA_SHIFT_TRACE_H_
#define SENSORD_DATA_SHIFT_TRACE_H_

#include <cstdint>

#include "data/analytic.h"
#include "data/stream_source.h"
#include "util/rng.h"

namespace sensord {

/// Parameters of the alternating-Gaussian stream; defaults match Figure 6.
struct ShiftTraceOptions {
  double mean_a = 0.3;
  double mean_b = 0.5;
  double stddev = 0.05;
  /// Readings per phase before switching.
  uint64_t phase_length = 4096;
};

/// 1-d Gaussian stream whose mean alternates every phase_length readings.
class ShiftingGaussianStream : public StreamSource {
 public:
  ShiftingGaussianStream(ShiftTraceOptions options, Rng rng);

  size_t dimensions() const override { return 1; }

  Point Next() override;

  /// Index (0-based) of the next reading Next() would produce.
  uint64_t position() const { return position_; }

  /// True iff reading index `i` comes from phase A (mean_a).
  bool IsPhaseA(uint64_t i) const {
    return (i / options_.phase_length) % 2 == 0;
  }

  /// The exact distribution of reading index `i`.
  AnalyticDistribution TrueDistributionAt(uint64_t i) const;

  const ShiftTraceOptions& options() const { return options_; }

 private:
  ShiftTraceOptions options_;
  Rng rng_;
  uint64_t position_ = 0;
};

}  // namespace sensord

#endif  // SENSORD_DATA_SHIFT_TRACE_H_
