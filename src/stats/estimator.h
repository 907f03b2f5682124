// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The common interface of all distribution approximations in sensord.
//
// Everything the paper does with a data distribution — distance-based
// neighbourhood counts N(p, r) (Eq. 4), MDEF cell counts (Figure 3), range
// query answering (Section 9) and model-to-model divergences (Section 6) —
// reduces to probability mass of axis-aligned boxes. Kernel estimators,
// equi-depth histograms, exact empirical distributions and the analytic
// generator distributions all implement this one interface, so detection
// algorithms, baselines and divergence computations are estimator-agnostic.
// Callers ask one box at a time — an MDEF cell scan or a sliced range query
// is a loop of BoxProbability calls — so an estimator has one box path to
// make fast, not a batched second one.

#ifndef SENSORD_STATS_ESTIMATOR_H_
#define SENSORD_STATS_ESTIMATOR_H_

#include <cstddef>
#include <limits>
#include <utility>

#include "util/math_utils.h"

namespace sensord {

/// A probability distribution over [0,1]^d that can integrate itself over
/// axis-aligned boxes and evaluate its density pointwise.
class DistributionEstimator {
 public:
  virtual ~DistributionEstimator() = default;

  /// Data dimensionality d.
  virtual size_t dimensions() const = 0;

  /// Probability mass of the box [lo, hi] (componentwise). Coordinates may
  /// extend beyond [0,1]; mass outside the support is zero. A box inverted
  /// in any dimension (lo[i] > hi[i]) is empty and has zero mass.
  /// Pre: lo.size() == hi.size() == dimensions().
  virtual double BoxProbability(const Point& lo, const Point& hi) const = 0;

  /// Probability mass of the L-infinity ball of radius r centred at p:
  /// the paper's P(p, r) = P[p - r, p + r] (Eq. 5). Estimators override it
  /// when they can answer without materializing the box.
  virtual double BallProbability(const Point& p, double r) const {
    Point lo(p), hi(p);
    for (size_t i = 0; i < p.size(); ++i) {
      lo[i] -= r;
      hi[i] += r;
    }
    return BoxProbability(lo, hi);
  }

  /// Density at point p.
  virtual double Pdf(const Point& p) const = 0;

  /// An interval of axis `dim` outside which the distribution has no mass.
  /// The default claims nothing: (-inf, inf).
  /// Pre: dim < dimensions().
  virtual std::pair<double, double> Support(size_t /*dim*/) const {
    return {-std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()};
  }

  /// The paper's N(p, r) (Eq. 4): estimated number of window values within
  /// L-infinity distance r of p, given the window population size.
  double NeighborCount(const Point& p, double r, double window_count) const {
    return BallProbability(p, r) * window_count;
  }
};

}  // namespace sensord

#endif  // SENSORD_STATS_ESTIMATOR_H_
