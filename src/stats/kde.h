// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Kernel density estimation over a (chain) sample — the heart of the paper.
//
// A sample R of the sliding window plus one Epanechnikov bandwidth per
// dimension defines the estimate (Eq. 1-3)
//   f(x) = (1/|R|) sum_{t in R} prod_i k_{B_i}(x_i - t_i),
// and, because the Epanechnikov profile integrates in closed form, the box
// mass P[lo, hi] is an exact O(d|R|) sum (Theorem 2). In one dimension the
// antiderivative of every kernel is one cubic, so the mass the sorted
// kernels put on an interval is a cubic in its ends whose coefficients are
// power sums of the kernel centres: a query takes four binary searches plus
// O(|R'|/16 + 16) block sums and rows (DESIGN.md §13, "Closed-form 1-d
// interval mass"), |R'| being the kernels that touch the interval.
//
// In d > 1 the paper's refinement — touch only the kernels whose support
// intersects the query — is generalized (DESIGN.md §13). The sample lives in
// a flat row-major buffer (util/flat_points.h) held in a *canonical order*
// (CanonicalLess): sorted by a primary axis a — the axis with the largest
// spread/bandwidth ratio, i.e. the axis where sorting prunes best — with
// ties broken lexicographically over all coordinates and then by the sign of
// zero. BoxProbability, BallProbability and Pdf share one query kernel:
// it binary-searches the candidate row range [lo_a − B_a, hi_a + B_a] on
// that axis and sums only the terms whose kernel support can intersect the
// query, O(log|R| + d|R'|); every skipped term contributes exactly 0.0, so
// results are bit-identical to a full sweep over the same canonical order.
//
// The estimator is an immutable snapshot: the online system (core::
// DensityModel) rebuilds it from the current chain sample whenever it needs
// to answer queries, which keeps this class exactly reproducible. Its one
// piece of mutable state, the memo of MDEF grid-cell masses behind
// GridCellMasses(), is invisible in the bits: a memoised cell holds exactly
// the value a fresh computation gives, and the memo dies with the estimator,
// so a rebuild never sees a stale one (DESIGN.md §13). A rebuild
// is cheap because DensityModel, and an MGDD leaf for its global replica,
// keep their own copy of the sample in canonical order as it changes
// (ReplaceCanonicalRow, RebuildCanonical): Create() checks the order in
// O(|R|·d) — in 1-d summing the blocks in the same pass — and sorts only a
// sample that is not already canonical. The SampleStorage Create() overload
// plus ReleaseSampleStorage() let the rebuild path recycle the retiring
// estimator's buffers and perform zero per-point heap allocations.

#ifndef SENSORD_STATS_KDE_H_
#define SENSORD_STATS_KDE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "stats/estimator.h"
#include "stats/kernel.h"
#include "util/check.h"
#include "util/flat_points.h"
#include "util/math_utils.h"
#include "util/status.h"

namespace sensord {

/// Product-Epanechnikov kernel density estimator over [0,1]^d.
class KernelDensityEstimator : public DistributionEstimator {
 public:
  /// The heap buffers an estimator owns: the sample and, in 1-d, the block
  /// power sums. A rebuild path hands the retiring estimator's buffers
  /// (ReleaseSampleStorage()) to the next one, so neither is allocated
  /// afresh. Converts from a bare FlatPoints sample.
  struct SampleStorage {
    SampleStorage() = default;
    SampleStorage(FlatPoints s) : sample(std::move(s)) {}

    FlatPoints sample;
    std::vector<double> block_sums;  // contents are overwritten
  };

  /// Builds an estimator from a flat sample and per-dimension bandwidths;
  /// the sample is sorted into canonical order in place, unless an
  /// O(|R|·d) check finds it canonical already. Returns
  /// InvalidArgument if the sample is empty, the dimensionalities are
  /// inconsistent, or any bandwidth is <= 0.
  static StatusOr<KernelDensityEstimator> Create(
      SampleStorage storage, std::vector<double> bandwidths);

  /// Convenience overload that flattens a Point vector first (allocates;
  /// hot rebuild paths should pass FlatPoints directly).
  static StatusOr<KernelDensityEstimator> Create(
      const std::vector<Point>& sample, std::vector<double> bandwidths);

  /// Disambiguates braced-list call sites (`Create({{0.5}}, {0.1})`), which
  /// would otherwise match both overloads above; list-initialization
  /// prefers an initializer_list parameter.
  static StatusOr<KernelDensityEstimator> Create(
      std::initializer_list<Point> sample, std::vector<double> bandwidths) {
    return Create(std::vector<Point>(sample), std::move(bandwidths));
  }

  /// Convenience: Scott's-rule bandwidths from per-dimension standard
  /// deviations (see stats/bandwidth.h), then Create().
  static StatusOr<KernelDensityEstimator> CreateWithScottBandwidths(
      SampleStorage storage, const std::vector<double>& stddevs);
  static StatusOr<KernelDensityEstimator> CreateWithScottBandwidths(
      const std::vector<Point>& sample, const std::vector<double>& stddevs);

  size_t dimensions() const override { return kernels_.size(); }

  /// Closed-form probability mass of the box [lo, hi]. In d > 1:
  /// O(log|R| + d|R'|), |R'| being the candidate rows whose primary-axis
  /// coordinate falls in [lo_a − B_a, hi_a + B_a]. In 1-d: O(log|R| +
  /// |R'|/16 + 16) from the block power sums, within 1e-12 of the term
  /// sweep (DESIGN.md §13). Never negative; an inverted box or an interval
  /// no kernel touches has mass exactly 0.0.
  double BoxProbability(const Point& lo, const Point& hi) const override;

  /// BoxProbability(p − r, p + r), bit for bit and with the same metrics,
  /// without allocating the box.
  double BallProbability(const Point& p, double r) const override;

  /// Density f(p). Same complexity as BoxProbability; in 1-d a quadratic
  /// over the same block power sums.
  double Pdf(const Point& p) const override;

  /// The sample's extent along `dim`, widened by that axis's bandwidth.
  std::pair<double, double> Support(size_t dim) const override;

  /// Number of kernels |R|.
  size_t sample_size() const { return sample_size_; }

  /// Per-dimension bandwidths B_i.
  std::vector<double> bandwidths() const;

  /// The sample in canonical order: flat row-major storage, rows sorted
  /// ascending under CanonicalLess(·, ·, dimensions(), primary_axis()) (in
  /// 1-d the plain sorted order, with -0.0 before +0.0).
  const FlatPoints& sample() const { return sample_; }

  /// The canonical row order over d-coordinate rows `a` and `b`: ascending
  /// by coordinate `axis`, ties broken lexicographically over all
  /// coordinates, and rows still equal ordered -0.0 before +0.0, coordinate
  /// by coordinate. For finite rows this is a strict total order on bit
  /// patterns — rows neither of which is less are bit-identical — so a
  /// sample has exactly one canonical buffer, however it was reached.
  /// Pre: every coordinate is finite (NaN has no place in the order).
  static bool CanonicalLess(const double* a, const double* b, size_t d,
                            size_t axis) {
    if (a[axis] != b[axis]) return a[axis] < b[axis];
    for (size_t i = 0; i < d; ++i) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    for (size_t i = 0; i < d; ++i) {
      if (std::signbit(a[i]) != std::signbit(b[i])) {
        return std::signbit(a[i]);
      }
    }
    return false;
  }

  /// Replaces the row `departed` of the canonically ordered `rows` with the
  /// row `arrived`, keeping the order on `axis`: binary-searches the
  /// departed row, CHECKs that the row found is bit-equal to it, slides the
  /// rows between its slot and the arrived row's slot over by one, and
  /// writes the arrived row into the freed slot. O(log|R| + d·moved rows),
  /// and `rows` never reallocates. Pre: `rows` is canonical on `axis` and
  /// holds `departed`; `arrived` has `rows->dimensions()` finite
  /// coordinates.
  static void ReplaceCanonicalRow(const double* departed,
                                  const double* arrived, size_t axis,
                                  FlatPoints* rows);

  /// One rebuild of an estimator cache that keeps a copy of its sample in
  /// canonical order (DESIGN.md §13). Replaces `*cached` with an estimator
  /// over `*canonical` — or, while `*canonical` is empty, over the rows
  /// `fill(FlatPoints*)` writes — with Scott's-rule bandwidths from
  /// `spreads`, built in the retiring estimator's recycled storage, so a
  /// warm rebuild allocates nothing per row. Create() finds a maintained
  /// copy already sorted unless the primary axis moved. Afterwards
  /// `*canonical` holds the new estimator's order: a fresh start or a moved
  /// axis copies it from the estimator. Pre: the rows and `spreads` are
  /// valid CreateWithScottBandwidths() inputs.
  template <typename Fill>
  static void RebuildCanonical(std::optional<KernelDensityEstimator>* cached,
                               FlatPoints* canonical,
                               const std::vector<double>& spreads,
                               Fill fill) {
    const bool maintained = !canonical->empty();
    size_t axis = 0;
    SampleStorage storage;
    if (cached->has_value()) {
      axis = (*cached)->primary_axis();
      storage = std::move(**cached).ReleaseSampleStorage();
    }
    if (maintained) {
      storage.sample = *canonical;
    } else {
      fill(&storage.sample);
    }
    auto built = CreateWithScottBandwidths(std::move(storage), spreads);
    SENSORD_CHECK_OK(built.status());
    cached->emplace(std::move(built).value());
    if (!maintained || (*cached)->primary_axis() != axis) {
      *canonical = (*cached)->sample();
    }
  }

  /// The axis the canonical order sorts by and queries prune on: the axis
  /// maximizing (sample spread) / bandwidth, ties to the smallest index.
  /// Always 0 in 1-d.
  size_t primary_axis() const { return primary_axis_; }

  /// The half-open canonical row range whose kernels can overlap
  /// [axis_lo, axis_hi] on the primary axis, i.e. rows with coordinate in
  /// [axis_lo − B_a, axis_hi + B_a]. Rows outside it contribute exactly
  /// 0.0 to any box/pdf query over that primary-axis extent.
  std::pair<size_t, size_t> CandidateRows(double axis_lo,
                                          double axis_hi) const;

  /// Masses of MDEF's sampling neighbourhood on the aligned grid of cell
  /// side `side`: cell j of an axis covers [j·side, j·side + side), for
  /// j < ceil(1/side), and the cells returned are those whose centre lies
  /// within `radius` of `center` on every axis (the L-infinity ball
  /// B(center, radius); core/mdef.h). A cell's mass is unnormalised —
  /// divide by sample_size() for probability — and sums, in canonical row
  /// order, the product-kernel mass of every row whose support reaches the
  /// cell on every axis (t_i + B_i > a_i and t_i − B_i < a_i + side, a_i
  /// the cell's lower edge). The span lists the cells row-major (last axis
  /// fastest); it is owned by the estimator and valid until its next call.
  ///
  /// The estimator memoises the grid's masses (one grid at a time; a call
  /// with another side starts a new one): a call computes only the listed
  /// cells not yet known, over their bounding sub-box, and a call whose
  /// cells are all known allocates nothing. A copy of the estimator starts
  /// with an empty memo. Grids of more than kMaxCellMemoCells cells are not
  /// memoised; every call computes its cells afresh. Pre: dimensions() > 1,
  /// center.size() == dimensions(), side > 0.
  std::span<const double> GridCellMasses(double side, const Point& center,
                                         double radius) const;

  /// The largest grid GridCellMasses() memoises, in cells: d = 2 at the
  /// default MDEF radii (50 × 50 cells of side 0.02, 20 KB) fits; d = 3
  /// (125,000 cells, 1 MB) does not.
  static constexpr size_t kMaxCellMemoCells = size_t{1} << 14;

  /// Cells the grid-mass memo holds (0 until a memoised GridCellMasses()
  /// call allocates it). Never exceeds kMaxCellMemoCells.
  size_t cell_memo_cells() const {
    return memo_.memo ? memo_.memo->mass.size() : 0;
  }

  /// Steals the sample and block-sum buffers so a rebuild path can recycle
  /// them (core::DensityModel refills the sample for the next estimator).
  /// The estimator is left empty and must not be queried afterwards.
  SampleStorage ReleaseSampleStorage() && {
    SampleStorage storage(std::move(sample_));
    storage.block_sums = std::move(block_sums_);
    return storage;
  }

  /// Footprint under the paper's accounting: d numbers per sample point plus
  /// d bandwidths, at `bytes_per_number` bytes each. The 1-d block power
  /// sums are a cache derived from the sample, like the cell memo, and are
  /// not counted.
  size_t MemoryBytes(size_t bytes_per_number) const;

  /// Heap bytes the estimator holds on this machine: the capacity of its
  /// sample, block sums, kernels and, once filled, its MDEF cell memo.
  size_t ResidentBytes() const;

 private:
  KernelDensityEstimator(SampleStorage storage,
                         std::vector<double> bandwidths);

  // Picks primary_axis_ and sorts sample_ into canonical order, unless it is
  // in that order already; in 1-d, fills block_sums_.
  void Canonicalize();

  // 1-d: checks that sample_ is sorted and, in the same pass, fills
  // block_sums_. Returns false, with block_sums_ unspecified, at the first
  // row out of canonical order.
  bool SumBlocksIfSorted();

  // 1-d BoxProbability and Pdf: the closed forms over block_sums_.
  double Interval1dProbability(double lo, double hi) const;
  double Pdf1d(double x) const;

  // BoxProbability over the box whose axis-i extent is [lo(i), hi(i)].
  template <typename Lo, typename Hi>
  double BoxMass(Lo lo, Hi hi) const;

  // The d > 1 query kernel: Σ over the canonical rows [rows.first,
  // rows.second) of Π_i factor(i, t_i), the product stopping at the first
  // non-positive partial, divided by |R|. `factor` is a kernel's
  // MassInInterval for a box and its Value for a density.
  template <typename Factor>
  double SumCandidateRows(std::pair<size_t, size_t> rows,
                          Factor factor) const;

  // The factored MDEF cell kernel, GridCellMasses()'s only fill routine:
  // adds every reaching row's mass, in canonical order, to the cells
  // first[i] ..= last[i] of the grid of side `side`. `dst` is the cell
  // (first[0], ..., first[d-1]); stride[i] steps one cell along axis i,
  // stride[d-1] == 1.
  void AccumulateCellMasses(double side, const size_t* first,
                            const size_t* last, const size_t* stride,
                            double* dst) const;

  // GridCellMasses()'s grid and per-call buffers.
  struct CellMemo {
    double side = 0.0;              // the memoised grid; 0 = none yet
    std::vector<double> mass;       // row-major over the whole grid
    std::vector<uint8_t> known;     // per cell: mass[] is filled
    std::vector<size_t> stride;     // the whole grid's, per axis
    std::vector<size_t> first, last, fill_first, fill_last, pos;
    std::vector<double> out;        // the listed cells, row-major
  };

  // Owns the CellMemo, allocated by the first GridCellMasses() call, so an
  // estimator that never answers MDEF stays small. The memo is a cache, so
  // a copy of the estimator starts without one; a move takes it along.
  struct CellMemoSlot {
    CellMemoSlot() = default;
    CellMemoSlot(const CellMemoSlot&) {}
    CellMemoSlot& operator=(const CellMemoSlot&) {
      memo.reset();
      return *this;
    }
    CellMemoSlot(CellMemoSlot&&) = default;
    CellMemoSlot& operator=(CellMemoSlot&&) = default;

    std::unique_ptr<CellMemo> memo;
  };

  FlatPoints sample_;  // canonical order; in 1-d its data() is the sorted
                       // coordinate array the fast path binary-searches
  // 1-d only: per block of 16 sorted rows (kBlockRows in kde.cc; the last
  // |R| mod 16 rows form no block), its centre c and the power sums Σs, Σs²,
  // Σs³ of s = t − c over its rows; four doubles per block.
  std::vector<double> block_sums_;
  std::vector<EpanechnikovKernel> kernels_;
  size_t sample_size_;
  size_t primary_axis_ = 0;
  // Single-threaded by construction (DESIGN.md §12), so a const query may
  // fill it.
  mutable CellMemoSlot memo_;
};

}  // namespace sensord

#endif  // SENSORD_STATS_KDE_H_
