// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Surrogate for the Pacific-Northwest weather traces ("Earth Climate and
// Weather, University of Washington") used in the paper.
//
// The original: two years of measurements of atmospheric pressure,
// dew-point, temperature, etc., 35 000 values per sensor; the paper streams
// pairs (pressure, dew-point). Figure 5 rows:
//   Pressure:  min 0.422, max 0.848, mean 0.677, median 0.681,
//              stddev 0.063, skew -0.399
//   Dew-point: min 0.113, max 0.282, mean 0.213, median 0.212,
//              stddev 0.027, skew -0.182
//
// The generator is a correlated 2-d process: slow synoptic oscillations
// (weather systems passing) plus AR(1) noise, with occasional storm fronts
// that depress pressure sharply — which produces the mild negative skew —
// and pull the dew-point along (shared weather forcing makes the two
// coordinates dependent, so 2-d outliers are meaningful). Statistics are
// validated against the Figure 5 rows by bench/fig05_dataset_stats.

#ifndef SENSORD_DATA_ENVIRONMENTAL_TRACE_H_
#define SENSORD_DATA_ENVIRONMENTAL_TRACE_H_

#include <cstdint>

#include "data/stream_source.h"
#include "util/rng.h"

namespace sensord {

/// Parameters of the surrogate weather stream. Defaults reproduce Figure 5.
struct EnvironmentalTraceOptions {
  // Pressure marginal.
  double pressure_base = 0.688;
  double pressure_synoptic_amp = 0.055;  ///< slow weather-system swing
  double pressure_noise = 0.025;         ///< long-run AR(1) stddev
  double pressure_min = 0.422;
  double pressure_max = 0.848;
  // Dew-point marginal.
  double dewpoint_base = 0.215;
  double dewpoint_synoptic_amp = 0.020;
  double dewpoint_noise = 0.012;
  double dewpoint_min = 0.113;
  double dewpoint_max = 0.282;
  // Shared dynamics.
  double synoptic_period = 2400.0;  ///< readings per weather-system cycle
  double mean_reversion = 0.03;     ///< AR(1) pull
  /// Expected readings between storm fronts, and front shape.
  double mean_calm_duration = 4000.0;
  double mean_storm_duration = 120.0;
  double storm_pressure_drop = 0.16;
  double storm_dewpoint_drop = 0.05;
};

/// Endless 2-d (pressure, dew-point) surrogate weather stream.
class EnvironmentalTraceGenerator : public StreamSource {
 public:
  EnvironmentalTraceGenerator(EnvironmentalTraceOptions options, Rng rng);

  explicit EnvironmentalTraceGenerator(Rng rng)
      : EnvironmentalTraceGenerator(EnvironmentalTraceOptions{}, rng) {}

  size_t dimensions() const override { return 2; }

  Point Next() override;

 private:
  EnvironmentalTraceOptions options_;
  Rng rng_;
  uint64_t t_ = 0;
  double phase_;            // random initial synoptic phase per sensor
  double pressure_ar_ = 0.0;
  double dewpoint_ar_ = 0.0;
  uint64_t storm_remaining_ = 0;
  uint64_t storm_total_ = 0;
  double storm_strength_ = 0.0;
};

}  // namespace sensord

#endif  // SENSORD_DATA_ENVIRONMENTAL_TRACE_H_
