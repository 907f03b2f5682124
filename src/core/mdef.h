// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The MDEF (Multi-Granularity Deviation Factor) outlier test over a
// distribution estimate — the isMDEFOutlier() of the paper's Figure 4,
// following the aLOCI construction of Papadimitriou et al. that the paper
// adopts (Sections 3 and 8, Figure 3).
//
// The domain is tiled into cells of side 2*alpha*r. For a value p:
//   * its counting-neighbourhood mass  n(p, ar)    = ball query around p,
//   * for every cell j whose centre lies within the sampling ball B(p, r),
//     the cell mass s_j = box query over the cell,
//   * the object-weighted average count  n_hat = sum s_j^2 / sum s_j,
//   * the object-weighted deviation      sigma = sqrt(sum s_j^3 / sum s_j
//                                                      - n_hat^2),
//   * MDEF = 1 - n(p, ar) / n_hat,   sigma_MDEF = sigma / n_hat,
// and p is flagged iff MDEF > k_sigma * sigma_MDEF (Eq. 9).
//
// All quantities are ratios of masses, so the same code serves kernel
// estimators (probability mass) and the exact empirical distribution used
// by the BruteForce-M baseline (fractional counts) — by construction the
// two agree whenever the kernel estimate is accurate.

#ifndef SENSORD_CORE_MDEF_H_
#define SENSORD_CORE_MDEF_H_

#include "core/config.h"
#include "stats/estimator.h"
#include "util/math_utils.h"

namespace sensord {

/// Full diagnostics of one MDEF evaluation.
struct MdefResult {
  double counting_mass = 0.0;  ///< n(p, alpha*r), as probability mass
  double avg_mass = 0.0;       ///< n_hat, object-weighted average cell mass
  double sigma_mass = 0.0;     ///< object-weighted std-dev of cell mass
  double mdef = 0.0;           ///< 1 - counting_mass / avg_mass
  double sigma_mdef = 0.0;     ///< sigma_mass / avg_mass
  bool is_outlier = false;     ///< mdef > k_sigma * sigma_mdef
  size_t cells_considered = 0;
};

/// Assembles the MDEF statistics from raw mass moments: `counting_mass` is
/// n(p, alpha*r) and sum1/sum2/sum3 are the first three power sums of the
/// cell masses s_j over the sampling neighbourhood. Shared by the online
/// estimator path, the brute-force baseline and the evaluation harness so
/// that all three apply the identical criterion.
MdefResult MdefFromMasses(double counting_mass, double sum1, double sum2,
                          double sum3, size_t cells, const MdefConfig& config);

/// Evaluates the MDEF criterion for value p against `model`.
/// Pre: p.size() == model.dimensions(); config radii in (0, 1),
/// counting_radius <= sampling_radius.
MdefResult ComputeMdef(const DistributionEstimator& model, const Point& p,
                       const MdefConfig& config);

/// Fast path for kernel estimators in d > 1. The cell masses come from the
/// estimator's grid memo (KernelDensityEstimator::GridCellMasses): the grid
/// of side 2*alpha*r does not depend on p, so between two rebuilds of the
/// estimator each cell is computed at most once, by the factored product
/// kernel, and an evaluation whose cells are all known costs the moment sums
/// plus one ball query and allocates nothing. Results do not depend on which
/// earlier evaluations filled the memo, and match the generic overload up to
/// floating-point association (DESIGN.md §13). In 1-d it defers to the
/// generic path. Same preconditions as the generic overload.
MdefResult ComputeMdef(const class KernelDensityEstimator& kde,
                       const Point& p, const MdefConfig& config);

}  // namespace sensord

#endif  // SENSORD_CORE_MDEF_H_
