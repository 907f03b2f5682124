#include "core/mdef.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/kde.h"

#include "util/check.h"

namespace sensord {
namespace {

// Enumerates, recursively over dimensions, every cell of the 2*alpha*r grid
// whose centre lies in the L-infinity ball B(p, r). Cells are collected
// rather than queried one by one, so the whole scan goes to the estimator
// as a single BoxProbabilityBatch call — one sample sweep for the KDE
// instead of one per cell.
struct CellScan {
  const DistributionEstimator& model;
  const Point& p;
  double cell_side;
  double sampling_radius;
  size_t cells_per_dim;

  std::vector<Point> box_lo, box_hi;  // in enumeration order

  Point lo, hi;

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
      box_lo.push_back(lo);
      box_hi.push_back(hi);
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
  SENSORD_DCHECK_EQ(p.size(), model.dimensions());
  SENSORD_CHECK_GT(config.counting_radius, 0.0);
  SENSORD_CHECK_LE(config.counting_radius, config.sampling_radius);
  SENSORD_CHECK_LT(config.sampling_radius, 1.0);

  const double counting_mass =
      model.BallProbability(p, config.counting_radius);
  CellScan scan(model, p, config);
  scan.Recurse(0);
  std::vector<double> masses;
  model.BoxProbabilityBatch(scan.box_lo, scan.box_hi, &masses);
  // Moments accumulate in cell enumeration order, exactly as the per-cell
  // scan summed them.
  double sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
  for (const double s : masses) {
    sum1 += s;
    sum2 += s * s;
    sum3 += s * s * s;
  }
  return MdefFromMasses(counting_mass, sum1, sum2, sum3, masses.size(),
                        config);
}

MdefResult ComputeMdef(const KernelDensityEstimator& kde, const Point& p,
                       const MdefConfig& config) {
  const size_t d = kde.dimensions();
  if (d == 1) {
    // The generic path already runs in O(log|R| + |R'|) per cell in 1-d.
    return ComputeMdef(static_cast<const DistributionEstimator&>(kde), p,
                       config);
  }
  SENSORD_DCHECK_EQ(p.size(), d);
  SENSORD_CHECK_GT(config.counting_radius, 0.0);
  SENSORD_CHECK_LE(config.counting_radius, config.sampling_radius);

  const double side = 2.0 * config.counting_radius;
  const double r = config.sampling_radius;
  const size_t cells_per_dim = static_cast<size_t>(std::ceil(1.0 / side));

  // Per-dimension list of cell intervals whose centres are within r of p —
  // the same selection rule as the generic CellScan, which factors over
  // dimensions for the L-infinity ball.
  std::vector<std::vector<double>> cell_lo(d);
  for (size_t dim = 0; dim < d; ++dim) {
    const long first = static_cast<long>(std::floor((p[dim] - r) / side));
    const long last = static_cast<long>(std::floor((p[dim] + r) / side));
    for (long j = std::max(0L, first);
         j <= last && j < static_cast<long>(cells_per_dim); ++j) {
      const double a = static_cast<double>(j) * side;
      if (std::fabs(a + 0.5 * side - p[dim]) > r) continue;
      cell_lo[dim].push_back(a);
    }
  }
  size_t total_cells = 1;
  for (size_t dim = 0; dim < d; ++dim) total_cells *= cell_lo[dim].size();
  if (total_cells == 0) {
    return MdefFromMasses(
        kde.BallProbability(p, config.counting_radius), 0.0, 0.0, 0.0, 0,
        config);
  }

  const std::vector<double> bandwidths = kde.bandwidths();
  std::vector<EpanechnikovKernel> kernels;
  kernels.reserve(d);
  for (double b : bandwidths) kernels.emplace_back(b);
  std::vector<double> cell_mass(total_cells, 0.0);
  // cell_mass is row-major over the per-dimension cell lists: the last
  // dimension is contiguous.
  std::vector<size_t> stride(d, 1);
  for (size_t dim = d - 1; dim-- > 0;) {
    stride[dim] = stride[dim + 1] * cell_lo[dim + 1].size();
  }
  std::vector<std::vector<double>> per_dim(d);
  for (size_t dim = 0; dim < d; ++dim) {
    per_dim[dim].resize(cell_lo[dim].size());
  }
  // Per row: the [span_lo, span_hi) range of cells with non-zero mass on each
  // dimension, and the odometer position over dimensions 0 .. d-2.
  std::vector<size_t> span_lo(d), span_hi(d), pos(d);
  std::vector<double> outer(d);  // per_dim[dim][pos[dim]] for dim < d-1

  // Restrict the sweep to the canonical rows whose kernel support can reach
  // the scanned cells on the KDE's primary axis; the rows skipped are
  // exactly ones the per-dimension reject below would discard, so cell_mass
  // accumulates bit-identically to a full sample sweep.
  const size_t axis = kde.primary_axis();
  const auto [row_begin, row_end] = kde.CandidateRows(
      cell_lo[axis].front(), cell_lo[axis].back() + side);
  const FlatPoints& sample = kde.sample();
  for (size_t row = row_begin; row < row_end; ++row) {
    const double* t = sample.Row(row);
    // Cheap reject: kernel support vs the bounding box of the listed cells.
    bool overlaps = true;
    for (size_t dim = 0; dim < d && overlaps; ++dim) {
      const double lo = cell_lo[dim].front();
      const double hi = cell_lo[dim].back() + side;
      overlaps = t[dim] + bandwidths[dim] > lo &&
                 t[dim] - bandwidths[dim] < hi;
    }
    if (!overlaps) continue;

    bool any_negative = false;
    bool any_empty = false;
    for (size_t dim = 0; dim < d; ++dim) {
      std::vector<double>& masses = per_dim[dim];
      span_lo[dim] = masses.size();
      span_hi[dim] = 0;
      for (size_t j = 0; j < masses.size(); ++j) {
        const double m = kernels[dim].MassInInterval(
            t[dim], cell_lo[dim][j], cell_lo[dim][j] + side);
        masses[j] = m;
        if (m == 0.0) continue;
        span_lo[dim] = std::min(span_lo[dim], j);
        span_hi[dim] = j + 1;
        any_negative = any_negative || m < 0.0;
      }
      any_empty = any_empty || span_hi[dim] == 0;
    }
    if (any_negative) {
      // The product below stops at the first non-positive partial and still
      // adds it, so a negative factor (should IntegralOver ever round a mass
      // below zero near the edge of the support) reaches cells whose product
      // a zero factor further down would otherwise clear: walk them all.
      for (size_t dim = 0; dim < d; ++dim) {
        span_lo[dim] = 0;
        span_hi[dim] = per_dim[dim].size();
      }
    } else if (any_empty) {
      continue;  // every cell's product has a zero factor
    }

    // Outer product accumulation over the spans: dimensions 0 .. d-2 advance
    // as an odometer, the last one is the contiguous inner loop. Each cell
    // gets ((1.0 * m[d-1]) * m[d-2]) ... * m[0], stopping at the first
    // non-positive partial, exactly as a per-cell walk multiplies. Cells
    // outside a span get a zero product, and adding 0.0 leaves them as they
    // are, so skipping them is bit-identical.
    const double* inner = per_dim[d - 1].data();
    for (size_t dim = 0; dim + 1 < d; ++dim) pos[dim] = span_lo[dim];
    for (;;) {
      size_t base = 0;
      for (size_t dim = 0; dim + 1 < d; ++dim) {
        base += pos[dim] * stride[dim];
        outer[dim] = per_dim[dim][pos[dim]];
      }
      double* out = cell_mass.data() + base;
      const double next = outer[d - 2];  // kept in a register across stores
      for (size_t j = span_lo[d - 1]; j < span_hi[d - 1]; ++j) {
        double m = inner[j];
        if (m > 0.0) {
          m *= next;
          for (size_t dim = d - 2; dim-- > 0 && m > 0.0;) m *= outer[dim];
        }
        out[j] += m;
      }
      size_t dim = d - 1;
      while (dim > 0 && ++pos[dim - 1] == span_hi[dim - 1]) {
        pos[dim - 1] = span_lo[dim - 1];
        --dim;
      }
      if (dim == 0) break;
    }
  }

  const double inv_n = 1.0 / static_cast<double>(kde.sample_size());
  double sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
  for (double m : cell_mass) {
    const double s = m * inv_n;
    sum1 += s;
    sum2 += s * s;
    sum3 += s * s * s;
  }
  return MdefFromMasses(kde.BallProbability(p, config.counting_radius), sum1,
                        sum2, sum3, total_cells, config);
}

bool IsMdefOutlier(const DistributionEstimator& model, const Point& p,
                   const MdefConfig& config) {
  return ComputeMdef(model, p, config).is_outlier;
}

}  // namespace sensord
