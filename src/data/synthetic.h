// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The paper's synthetic workload (Section 10, Datasets):
//
//   "Each dataset is a mixture of three Gaussian distributions with uniform
//    noise; the mean is selected at random from (0.3, 0.35, 0.45), and the
//    standard deviation is selected as 0.03 ... Subsequently, we add 0.5%
//    (of the dataset size) noise values, uniformly at random in the interval
//    [0.5, 1]."
//
// The noise values are the planted deviations the detectors should flag. In
// d >= 2 dimensions each dimension draws its own 3-component mixture, and a
// noise reading is uniform in [0.5, 1]^d jointly, so it is an outlier in the
// multi-dimensional space (the paper's engine example motivates exactly such
// joint outliers).

#ifndef SENSORD_DATA_SYNTHETIC_H_
#define SENSORD_DATA_SYNTHETIC_H_

#include <array>
#include <cstddef>
#include <vector>

#include "data/analytic.h"
#include "data/stream_source.h"
#include "util/rng.h"

namespace sensord {

/// Knobs of the synthetic mixture stream; defaults are the paper's.
struct SyntheticOptions {
  size_t dimensions = 1;
  /// Pool from which each component mean is drawn (with replacement).
  std::array<double, 3> mean_pool = {0.3, 0.35, 0.45};
  double component_stddev = 0.03;
  /// Fraction of readings replaced by uniform noise in [noise_lo, noise_hi].
  double noise_probability = 0.005;
  double noise_lo = 0.5;
  double noise_hi = 1.0;
};

/// Endless mixture-of-3-Gaussians stream with uniform noise.
class SyntheticMixtureStream : public StreamSource {
 public:
  /// Component means are drawn once per dimension at construction, from
  /// options.mean_pool, using `rng` — so differently seeded sensors see
  /// different (but overlapping) distributions, as in the paper's setup.
  SyntheticMixtureStream(SyntheticOptions options, Rng rng);

  size_t dimensions() const override { return options_.dimensions; }

  Point Next() override;

  /// The exact distribution this stream draws from (noise component
  /// included), for estimation-accuracy measurements.
  AnalyticDistribution TrueDistribution() const;

  /// The component means chosen for dimension `dim`.
  const std::array<double, 3>& ComponentMeans(size_t dim) const {
    return means_[dim];
  }

 private:
  SyntheticOptions options_;
  Rng rng_;
  std::vector<std::array<double, 3>> means_;  // per dimension
};

/// Knobs of the gapped bimodal stream; see GappedBimodalStream.
struct GappedBimodalOptions {
  size_t dimensions = 1;
  /// The two dense uniform bands (per coordinate).
  double band_a_lo = 0.28, band_a_hi = 0.42;
  double band_b_lo = 0.54, band_b_hi = 0.68;
  /// Rare readings landing inside the otherwise-empty gap.
  double gap_noise_probability = 0.005;
  double gap_lo = 0.44, gap_hi = 0.52;
};

/// Two dense uniform bands separated by an (almost) empty gap, plus rare
/// gap readings. This is the canonical *local-density* outlier workload: a
/// gap reading has a near-empty counting neighbourhood while its sampling
/// neighbourhood is dense and homogeneous, so it is exactly the kind of
/// deviation the MDEF criterion (Section 8) exists to catch — and that a
/// single global distance threshold handles poorly. Used by the MDEF-focused
/// tests and by the MGDD ablation bench.
class GappedBimodalStream : public StreamSource {
 public:
  GappedBimodalStream(GappedBimodalOptions options, Rng rng);

  size_t dimensions() const override { return options_.dimensions; }

  Point Next() override;

 private:
  GappedBimodalOptions options_;
  Rng rng_;
};

}  // namespace sensord

#endif  // SENSORD_DATA_SYNTHETIC_H_
