#include "stats/kernel.h"

#include "util/check.h"

namespace sensord {

EpanechnikovKernel::EpanechnikovKernel(double bandwidth)
    : bandwidth_(bandwidth),
      inv_bandwidth_(1.0 / bandwidth),
      scale_(0.75 / bandwidth) {
  SENSORD_CHECK_GT(bandwidth, 0.0);
}

double EpanechnikovKernel::Value(double x) const {
  const double u = x * inv_bandwidth_;
  if (u <= -1.0 || u >= 1.0) return 0.0;
  return scale_ * (1.0 - u * u);
}

}  // namespace sensord
