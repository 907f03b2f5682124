#include "core/mdef.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "stats/kde.h"

#include "util/check.h"

namespace sensord {
namespace {

// Enumerates, recursively over dimensions, every cell of the 2*alpha*r grid
// whose centre lies in the L-infinity ball B(p, r), queries its mass with
// BoxProbability and accumulates the moments in enumeration order.
struct CellScan {
  const DistributionEstimator& model;
  const Point& p;
  double cell_side;
  double sampling_radius;
  size_t cells_per_dim;

  Point lo, hi;
  double sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
  size_t cells = 0;

  explicit CellScan(const DistributionEstimator& m, const Point& point,
                    const MdefConfig& config)
      : model(m),
        p(point),
        cell_side(2.0 * config.counting_radius),
        sampling_radius(config.sampling_radius),
        cells_per_dim(static_cast<size_t>(std::ceil(1.0 / cell_side))),
        lo(m.dimensions()),
        hi(m.dimensions()) {}

  void Recurse(size_t dim) {
    if (dim == model.dimensions()) {
      const double s = model.BoxProbability(lo, hi);
      sum1 += s;
      sum2 += s * s;
      sum3 += s * s * s;
      ++cells;
      return;
    }
    // Cells j cover [j*side, (j+1)*side); keep those whose centre is within
    // the sampling radius of p in this dimension.
    const long first = static_cast<long>(
        std::floor((p[dim] - sampling_radius) / cell_side));
    const long last = static_cast<long>(
        std::floor((p[dim] + sampling_radius) / cell_side));
    for (long j = std::max(0L, first);
         j <= last && j < static_cast<long>(cells_per_dim); ++j) {
      const double a = static_cast<double>(j) * cell_side;
      const double center = a + 0.5 * cell_side;
      if (std::fabs(center - p[dim]) > sampling_radius) continue;
      lo[dim] = a;
      hi[dim] = a + cell_side;
      Recurse(dim + 1);
    }
  }
};

// The preconditions both ComputeMdef overloads document.
void CheckMdefArguments(const DistributionEstimator& model, const Point& p,
                        const MdefConfig& config) {
  SENSORD_DCHECK_EQ(p.size(), model.dimensions());
  SENSORD_CHECK_GT(config.counting_radius, 0.0);
  SENSORD_CHECK_LE(config.counting_radius, config.sampling_radius);
  SENSORD_CHECK_LT(config.sampling_radius, 1.0);
}

// The generic evaluation: every cell is a box query.
MdefResult ScanMdef(const DistributionEstimator& model, const Point& p,
                    const MdefConfig& config) {
  const double counting_mass =
      model.BallProbability(p, config.counting_radius);
  CellScan scan(model, p, config);
  scan.Recurse(0);
  return MdefFromMasses(counting_mass, scan.sum1, scan.sum2, scan.sum3,
                        scan.cells, config);
}

}  // namespace

MdefResult MdefFromMasses(double counting_mass, double sum1, double sum2,
                          double sum3, size_t cells,
                          const MdefConfig& config) {
  MdefResult r;
  r.counting_mass = counting_mass;
  r.cells_considered = cells;

  if (sum1 < config.min_neighborhood_mass) {
    // An (essentially) empty sampling neighbourhood: no local statistics to
    // deviate from. The paper's framework never flags such values; they
    // would be caught by the distance-based criterion instead.
    return r;
  }

  r.avg_mass = sum2 / sum1;
  const double second_moment = sum3 / sum1;
  const double var = second_moment - r.avg_mass * r.avg_mass;
  r.sigma_mass = var > 0.0 ? std::sqrt(var) : 0.0;

  if (r.avg_mass <= 0.0) return r;
  r.mdef = 1.0 - r.counting_mass / r.avg_mass;
  r.sigma_mdef = r.sigma_mass / r.avg_mass;
  r.is_outlier = r.mdef > config.k_sigma * r.sigma_mdef;
  return r;
}

MdefResult ComputeMdef(const DistributionEstimator& model, const Point& p,
                       const MdefConfig& config) {
  CheckMdefArguments(model, p, config);
  return ScanMdef(model, p, config);
}

MdefResult ComputeMdef(const KernelDensityEstimator& kde, const Point& p,
                       const MdefConfig& config) {
  CheckMdefArguments(kde, p, config);
  // The generic path's 1-d cell masses already come in closed form.
  if (kde.dimensions() == 1) return ScanMdef(kde, p, config);

  const std::span<const double> cell_mass = kde.GridCellMasses(
      2.0 * config.counting_radius, p, config.sampling_radius);
  const double inv_n = 1.0 / static_cast<double>(kde.sample_size());
  double sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
  for (double m : cell_mass) {
    const double s = m * inv_n;
    sum1 += s;
    sum2 += s * s;
    sum3 += s * s * s;
  }
  return MdefFromMasses(kde.BallProbability(p, config.counting_radius), sum1,
                        sum2, sum3, cell_mass.size(), config);
}

}  // namespace sensord
