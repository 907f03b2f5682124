// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The Epanechnikov kernel (Section 4 of the paper).
//
// The paper picks the Epanechnikov kernel "that is easy to integrate": its
// one-dimensional profile is a truncated parabola whose antiderivative is a
// cubic, so the probability mass a kernel contributes to an interval — and,
// by the product form, to any axis-aligned box — has a closed form. This is
// what makes O(d|R|) range queries (Theorem 2) possible.

#ifndef SENSORD_STATS_KERNEL_H_
#define SENSORD_STATS_KERNEL_H_

#include <algorithm>
#include <cstddef>

#include "util/check.h"

namespace sensord {

/// One-dimensional Epanechnikov kernel with bandwidth B:
///   k_B(x) = (3 / (4 B)) (1 - (x/B)^2)   for |x| <= B, else 0.
/// Integrates to 1 over its support [-B, B].
class EpanechnikovKernel {
 public:
  /// Pre: bandwidth > 0.
  explicit EpanechnikovKernel(double bandwidth);

  double bandwidth() const { return bandwidth_; }
  double inv_bandwidth() const { return inv_bandwidth_; }

  /// Kernel value at offset x from the kernel centre.
  double Value(double x) const;

  /// Integral of the kernel over [a, b] (offsets from the kernel centre).
  /// Pre: a <= b. Handles limits outside the support by clipping.
  /// Inline: it is the inner arithmetic of every box query and MDEF cell
  /// scan.
  double IntegralOver(double a, double b) const {
    SENSORD_DCHECK_LE(a, b);
    // Antiderivative of the unit-bandwidth profile (3/4)(1 - u^2) is
    // F(u) = (3/4)(u - u^3/3); F(-1) = -1/2 and F(1) = 1/2.
    const double ua = std::clamp(a * inv_bandwidth_, -1.0, 1.0);
    const double ub = std::clamp(b * inv_bandwidth_, -1.0, 1.0);
    auto antideriv = [](double u) { return 0.75 * (u - u * u * u / 3.0); };
    return antideriv(ub) - antideriv(ua);
  }

  /// Integral of the kernel centred at `center` over the absolute interval
  /// [lo, hi]. Pre: lo <= hi.
  double MassInInterval(double center, double lo, double hi) const {
    return IntegralOver(lo - center, hi - center);
  }

 private:
  double bandwidth_;
  double inv_bandwidth_;
  double scale_;  // 3 / (4 B)
};

}  // namespace sensord

#endif  // SENSORD_STATS_KERNEL_H_
