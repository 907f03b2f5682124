#include "stats/kde.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "stats/bandwidth.h"

#include "util/check.h"

namespace sensord {
namespace {

// Per-query cost telemetry: the paper's O(d|R|) box-query bound — and the
// pruned paths — made observable as the kernels each query touches.
// terms_per_query records, for every box, the primary-axis candidate count
// |R'| (in 1-d the kernels touching the interval, which the closed form
// covers with about 2|R'|/16 block sums). Each memoised GridCellMasses()
// call is either a cell_memo_fill (it ran the cell kernel) or a
// cell_memo_hit (every listed cell was known).
struct KdeMetrics {
  obs::Counter* box_queries;
  obs::Histogram* terms_per_query;
  obs::Counter* cell_memo_fills;
  obs::Counter* cell_memo_hits;
};

const KdeMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const KdeMetrics m{
      registry.GetCounter("stats.kde.box_queries"),
      registry.GetHistogram("stats.kde.terms_per_query",
                            obs::SizeBoundaries()),
      registry.GetCounter("stats.kde.cell_memo_fills"),
      registry.GetCounter("stats.kde.cell_memo_hits")};
  return m;
}

// First canonical row whose primary-axis coordinate satisfies `pred`, which
// must be false and then true along the sorted column.
template <typename Pred>
size_t FirstRowWhere(const FlatPoints& sample, size_t axis, Pred pred) {
  size_t lo = 0, hi = sample.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (pred(sample.At(mid, axis))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// The first value in the sorted run [first, last) for which `before` is
// false (it must be true, then false), as std::partition_point finds it but
// without a data-dependent branch: ⌈log2 n⌉ halvings, each a conditional
// move, so a 1-d query's searches mispredict nothing.
template <typename Before>
const double* PartitionPoint(const double* first, const double* last,
                             Before before) {
  size_t n = static_cast<size_t>(last - first);
  if (n == 0) return first;
  while (n > 1) {
    const size_t half = n / 2;
    first = before(first[half]) ? first + half : first;
    n -= half;
  }
  return first + (before(*first) ? 1 : 0);
}

// Rows per block of the 1-d power sums: a block's four sums replace 16 row
// terms, and the rows of a query piece outside its whole blocks — fewer
// than 16 at each end — are summed directly (DESIGN.md §13).
constexpr size_t kBlockRows = 16;

// Σ (x − t)^k for k = 1, 2, 3 over a run of sorted rows t.
struct OffsetPowers {
  double p1 = 0.0;
  double p2 = 0.0;
  double p3 = 0.0;
};

// OffsetPowers over rows [begin, end) of the sorted 1-d sample `t`, every
// one of which must lie within a bandwidth of x. A block wholly inside the
// run re-centres its sums at x: with y = x − c, Σ(x − t)^k = Σ(y − s)^k
// expands into its power sums Σs^j. Both |y| and |s| are at most the
// bandwidth, so no term of the expansion is larger than the result's scale
// (DESIGN.md §13). The rows at either end outside whole blocks are summed
// directly.
inline OffsetPowers SumOffsetPowers(const double* t,
                                    const std::vector<double>& block_sums,
                                    double x, size_t begin, size_t end) {
  OffsetPowers sum;
  auto add_rows = [t, x, &sum](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      const double dx = x - t[i];
      const double dx2 = dx * dx;
      sum.p1 += dx;
      sum.p2 += dx2;
      sum.p3 += dx2 * dx;
    }
  };
  const size_t first_block = (begin + kBlockRows - 1) / kBlockRows;
  const size_t end_block = end / kBlockRows;
  if (first_block >= end_block) {
    add_rows(begin, end);
    return sum;
  }
  add_rows(begin, first_block * kBlockRows);
  constexpr double k = static_cast<double>(kBlockRows);
  for (size_t block = first_block; block < end_block; ++block) {
    const double* b = block_sums.data() + 4 * block;
    const double y = x - b[0];
    sum.p1 += k * y - b[1];
    sum.p2 += (k * y - 2.0 * b[1]) * y + b[2];
    sum.p3 += ((k * y - 3.0 * b[1]) * y + 3.0 * b[2]) * y - b[3];
  }
  add_rows(end_block * kBlockRows, end);
  return sum;
}

// Calls visit(offset) for every cell first[i] ..= last[i] of a grid in
// row-major order (last axis fastest), offset = sum_i pos[i] * stride[i];
// `pos` holds the visited cell's indices.
template <typename Visit>
void ForEachCell(size_t d, const size_t* first, const size_t* last,
                 const size_t* stride, size_t* pos, Visit visit) {
  for (size_t i = 0; i < d; ++i) pos[i] = first[i];
  for (;;) {
    size_t offset = 0;
    for (size_t i = 0; i < d; ++i) offset += pos[i] * stride[i];
    visit(offset);
    size_t i = d;
    while (i > 0 && pos[i - 1] == last[i - 1]) {
      pos[i - 1] = first[i - 1];
      --i;
    }
    if (i == 0) return;
    ++pos[i - 1];
  }
}

}  // namespace

StatusOr<KernelDensityEstimator> KernelDensityEstimator::Create(
    SampleStorage storage, std::vector<double> bandwidths) {
  const FlatPoints& sample = storage.sample;
  if (sample.empty()) {
    return Status::InvalidArgument("KDE requires a non-empty sample");
  }
  if (bandwidths.empty()) {
    return Status::InvalidArgument("KDE requires at least one bandwidth");
  }
  if (sample.dimensions() != bandwidths.size()) {
    return Status::InvalidArgument(
        "sample point dimensionality does not match bandwidth count");
  }
  for (double b : bandwidths) {
    if (!(b > 0.0)) {
      return Status::InvalidArgument("bandwidths must be positive");
    }
  }
  return KernelDensityEstimator(std::move(storage), std::move(bandwidths));
}

StatusOr<KernelDensityEstimator> KernelDensityEstimator::Create(
    const std::vector<Point>& sample, std::vector<double> bandwidths) {
  for (const Point& p : sample) {
    if (p.size() != bandwidths.size()) {
      return Status::InvalidArgument(
          "sample point dimensionality does not match bandwidth count");
    }
  }
  return Create(FlatPoints::FromPoints(sample), std::move(bandwidths));
}

StatusOr<KernelDensityEstimator>
KernelDensityEstimator::CreateWithScottBandwidths(
    SampleStorage storage, const std::vector<double>& stddevs) {
  if (storage.sample.empty()) {
    return Status::InvalidArgument("KDE requires a non-empty sample");
  }
  const size_t n = storage.sample.size();
  return Create(std::move(storage), ScottBandwidths(stddevs, n));
}

StatusOr<KernelDensityEstimator>
KernelDensityEstimator::CreateWithScottBandwidths(
    const std::vector<Point>& sample, const std::vector<double>& stddevs) {
  if (sample.empty()) {
    return Status::InvalidArgument("KDE requires a non-empty sample");
  }
  return Create(sample, ScottBandwidths(stddevs, sample.size()));
}

KernelDensityEstimator::KernelDensityEstimator(SampleStorage storage,
                                               std::vector<double> bandwidths)
    : sample_(std::move(storage.sample)),
      block_sums_(std::move(storage.block_sums)),
      sample_size_(sample_.size()) {
  kernels_.reserve(bandwidths.size());
  for (double b : bandwidths) kernels_.emplace_back(b);
  Canonicalize();
}

void KernelDensityEstimator::Canonicalize() {
  const size_t d = kernels_.size();
  if (d == 1) {
    // A sample handed over sorted — a DensityModel's maintained buffer —
    // needs no sort, and its block sums come out of the order check's pass.
    if (SumBlocksIfSorted()) return;
    // The flat buffer *is* the sorted coordinate array the 1-d fast path
    // binary-searches. Equal finite doubles are bit-identical except for
    // ±0.0, so a plain sort that then puts the zero run's -0.0s first
    // yields the canonical order, cheaper than sorting under CanonicalLess.
    std::vector<double>& coords = *sample_.mutable_data();
    std::sort(coords.begin(), coords.end());
    const auto zeros = std::equal_range(coords.begin(), coords.end(), 0.0);
    std::partition(zeros.first, zeros.second,
                   [](double z) { return std::signbit(z); });
    SumBlocksIfSorted();
    return;
  }
  block_sums_.clear();
  // Primary axis: the axis where a sorted-order window [lo - B, hi + B]
  // prunes best, i.e. with the largest spread/bandwidth ratio. Ties go to
  // the smallest axis index (strict > below), so the choice — and with it
  // the canonical order and every downstream artifact — is deterministic.
  double best_ratio = -1.0;
  for (size_t i = 0; i < d; ++i) {
    double lo = sample_.At(0, i), hi = lo;
    for (size_t row = 1; row < sample_size_; ++row) {
      const double v = sample_.At(row, i);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double ratio = (hi - lo) / kernels_[i].bandwidth();
    if (ratio > best_ratio) {
      best_ratio = ratio;
      primary_axis_ = i;
    }
  }
  const size_t axis = primary_axis_;
  // A sample handed over in canonical order — a DensityModel's maintained
  // buffer, whenever the primary axis did not move — needs no sort.
  bool canonical = true;
  for (size_t row = 1; row < sample_size_ && canonical; ++row) {
    canonical =
        !CanonicalLess(sample_.Row(row), sample_.Row(row - 1), d, axis);
  }
  if (canonical) return;
  // CanonicalLess is a total order on the rows' bit patterns, so the
  // unstable in-place heapsort still yields the one canonical buffer.
  const FlatPoints& s = sample_;
  sample_.SortRows([&s, axis, d](size_t a, size_t b) {
    return CanonicalLess(s.Row(a), s.Row(b), d, axis);
  });
}

bool KernelDensityEstimator::SumBlocksIfSorted() {
  const double* t = sample_.data().data();
  const size_t n = sample_size_;
  block_sums_.resize(4 * (n / kBlockRows));
  double* block = block_sums_.data();
  size_t row = 0;
  for (; row + kBlockRows <= n; row += kBlockRows, block += 4) {
    // The block's midrange, so every s = t − c is at most half its span.
    const double centre = 0.5 * t[row] + 0.5 * t[row + kBlockRows - 1];
    double s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t i = row; i < row + kBlockRows; ++i) {
      if (i > 0 && CanonicalLess(t + i, t + i - 1, 1, 0)) return false;
      const double s = t[i] - centre;
      s1 += s;
      s2 += s * s;
      s3 += s * s * s;
    }
    block[0] = centre;
    block[1] = s1;
    block[2] = s2;
    block[3] = s3;
  }
  for (row = std::max<size_t>(row, 1); row < n; ++row) {
    if (CanonicalLess(t + row, t + row - 1, 1, 0)) return false;
  }
  return true;
}

void KernelDensityEstimator::ReplaceCanonicalRow(const double* departed,
                                                 const double* arrived,
                                                 size_t axis,
                                                 FlatPoints* rows) {
  const size_t d = rows->dimensions();
  const size_t n = rows->size();
  // First row in [begin, end) that is not canonically less than `key`.
  const auto lower_bound = [rows, d, axis](size_t begin, size_t end,
                                           const double* key) {
    while (begin < end) {
      const size_t mid = begin + (end - begin) / 2;
      if (CanonicalLess(rows->Row(mid), key, d, axis)) {
        begin = mid + 1;
      } else {
        end = mid;
      }
    }
    return begin;
  };
  double* data = rows->mutable_data()->data();
  const size_t from = lower_bound(0, n, departed);
  SENSORD_CHECK(from < n &&
                std::memcmp(data + from * d, departed, d * sizeof(double)) ==
                    0 &&
                "maintained canonical sample lost a departed row");
  // Slide the rows between the departed row's slot and the arrived row's
  // slot over by one, then write the arrived row into the freed slot.
  size_t to;
  if (CanonicalLess(arrived, departed, d, axis)) {
    to = lower_bound(0, from, arrived);
    std::copy_backward(data + to * d, data + from * d, data + (from + 1) * d);
  } else {
    to = lower_bound(from + 1, n, arrived) - 1;
    std::copy(data + (from + 1) * d, data + (to + 1) * d, data + from * d);
  }
  std::copy(arrived, arrived + d, data + to * d);
}

std::pair<double, double> KernelDensityEstimator::Support(size_t dim) const {
  SENSORD_DCHECK_LT(dim, dimensions());
  double lo = sample_.At(0, dim), hi = lo;
  for (size_t r = 1; r < sample_size_; ++r) {
    lo = std::min(lo, sample_.At(r, dim));
    hi = std::max(hi, sample_.At(r, dim));
  }
  const double b = kernels_[dim].bandwidth();
  return {lo - b, hi + b};
}

std::vector<double> KernelDensityEstimator::bandwidths() const {
  std::vector<double> out;
  out.reserve(kernels_.size());
  for (const auto& k : kernels_) out.push_back(k.bandwidth());
  return out;
}

std::pair<size_t, size_t> KernelDensityEstimator::CandidateRows(
    double axis_lo, double axis_hi) const {
  const double b = kernels_[primary_axis_].bandwidth();
  const double lo = axis_lo - b;
  const double hi = axis_hi + b;
  const size_t begin =
      FirstRowWhere(sample_, primary_axis_, [lo](double t) { return t >= lo; });
  const size_t end =
      FirstRowWhere(sample_, primary_axis_, [hi](double t) { return t > hi; });
  return {begin, std::max(begin, end)};
}

double KernelDensityEstimator::Interval1dProbability(double lo,
                                                     double hi) const {
  // Σ over the kernels of F(u_hi) − F(u_lo), u = (x − t)/B, with
  // F(u) = (3/4)u − (1/4)u³ on [−1, 1] and ±1/2 beyond. Four breakpoints
  // split the sorted sample: rows in [lo − B, lo + B] take −F(u_lo) and rows
  // in [hi − B, hi + B] take F(u_hi), as cubics; rows in [lo − B, hi − B)
  // have F(u_hi) = 1/2 and rows in (lo + B, hi + B] have −F(u_lo) = 1/2;
  // every other row adds 1/2 − 1/2 = 0. The two cubic pieces come from
  // SumOffsetPowers, so their cost grows by |R'|/kBlockRows, not |R'|.
  const double b = kernels_[0].bandwidth();
  const double inv_b = kernels_[0].inv_bandwidth();
  const double* t = sample_.data().data();
  const double* const rows_end = t + sample_size_;
  const double lo_minus = lo - b, lo_plus = lo + b;
  const double hi_minus = hi - b, hi_plus = hi + b;
  // touch_begin .. lo_end is [lo − B, lo + B], hi_begin .. touch_end is
  // [hi − B, hi + B].
  const double* touch_begin = PartitionPoint(
      t, rows_end, [lo_minus](double v) { return v < lo_minus; });
  const double* lo_end = PartitionPoint(
      touch_begin, rows_end, [lo_plus](double v) { return v <= lo_plus; });
  const double* hi_begin = PartitionPoint(
      touch_begin, rows_end, [hi_minus](double v) { return v < hi_minus; });
  const double* touch_end =
      PartitionPoint(std::max(lo_end, hi_begin), rows_end,
                     [hi_plus](double v) { return v <= hi_plus; });
  Metrics().terms_per_query->Record(
      static_cast<double>(touch_end - touch_begin));

  const OffsetPowers at_lo = SumOffsetPowers(
      t, block_sums_, lo, static_cast<size_t>(touch_begin - t),
      static_cast<size_t>(lo_end - t));
  const OffsetPowers at_hi = SumOffsetPowers(
      t, block_sums_, hi, static_cast<size_t>(hi_begin - t),
      static_cast<size_t>(touch_end - t));
  const double halves =
      static_cast<double>((hi_begin - touch_begin) + (touch_end - lo_end));
  const double mass = 0.5 * halves + 0.75 * inv_b * (at_hi.p1 - at_lo.p1) -
                      0.25 * inv_b * inv_b * inv_b * (at_hi.p3 - at_lo.p3);
  // Rounding may leave a mass of exactly zero a hair below it.
  return std::max(mass, 0.0) / static_cast<double>(sample_size_);
}

double KernelDensityEstimator::Pdf1d(double x) const {
  // Σ over the rows with |x − t| < B of (3/(4B))(1 − u²), u = (x − t)/B.
  const double b = kernels_[0].bandwidth();
  const double inv_b = kernels_[0].inv_bandwidth();
  const double* t = sample_.data().data();
  const double* const rows_end = t + sample_size_;
  const double x_minus = x - b, x_plus = x + b;
  const double* begin = PartitionPoint(
      t, rows_end, [x_minus](double v) { return v <= x_minus; });
  const double* end = PartitionPoint(
      begin, rows_end, [x_plus](double v) { return v < x_plus; });
  const OffsetPowers sum =
      SumOffsetPowers(t, block_sums_, x, static_cast<size_t>(begin - t),
                      static_cast<size_t>(end - t));
  const double rows = static_cast<double>(end - begin);
  const double density = 0.75 * inv_b * (rows - sum.p2 * inv_b * inv_b);
  return std::max(density, 0.0) / static_cast<double>(sample_size_);
}

template <typename Factor>
double KernelDensityEstimator::SumCandidateRows(std::pair<size_t, size_t> rows,
                                                Factor factor) const {
  // Only the candidate rows can have a nonzero primary-axis factor; every
  // other row's term is exactly 0.0, so restricting the sweep keeps the sum
  // bit-identical to the full canonical-order sweep.
  const size_t d = dimensions();
  double total = 0.0;
  for (size_t row = rows.first; row < rows.second; ++row) {
    const double* t = sample_.Row(row);
    double contrib = 1.0;
    for (size_t i = 0; i < d && contrib > 0.0; ++i) {
      contrib *= factor(i, t[i]);
    }
    total += contrib;
  }
  return total / static_cast<double>(sample_size_);
}

template <typename Lo, typename Hi>
double KernelDensityEstimator::BoxMass(Lo lo, Hi hi) const {
  Metrics().box_queries->Increment();
  const size_t d = dimensions();
  for (size_t i = 0; i < d; ++i) {
    if (lo(i) > hi(i)) return 0.0;  // inverted box: empty
  }
  if (d == 1) return Interval1dProbability(lo(0), hi(0));
  const auto rows = CandidateRows(lo(primary_axis_), hi(primary_axis_));
  Metrics().terms_per_query->Record(
      static_cast<double>(rows.second - rows.first));
  return SumCandidateRows(rows, [this, &lo, &hi](size_t i, double t) {
    return kernels_[i].MassInInterval(t, lo(i), hi(i));
  });
}

double KernelDensityEstimator::BoxProbability(const Point& lo,
                                              const Point& hi) const {
  SENSORD_DCHECK_EQ(lo.size(), dimensions());
  SENSORD_DCHECK_EQ(hi.size(), dimensions());
  return BoxMass([&lo](size_t i) { return lo[i]; },
                 [&hi](size_t i) { return hi[i]; });
}

double KernelDensityEstimator::BallProbability(const Point& p,
                                               double r) const {
  SENSORD_DCHECK_EQ(p.size(), dimensions());
  return BoxMass([&p, r](size_t i) { return p[i] - r; },
                 [&p, r](size_t i) { return p[i] + r; });
}

double KernelDensityEstimator::Pdf(const Point& p) const {
  SENSORD_DCHECK_EQ(p.size(), dimensions());
  if (dimensions() == 1) return Pdf1d(p[0]);
  return SumCandidateRows(
      CandidateRows(p[primary_axis_], p[primary_axis_]),
      [this, &p](size_t i, double t) { return kernels_[i].Value(p[i] - t); });
}

std::span<const double> KernelDensityEstimator::GridCellMasses(
    double side, const Point& center, double radius) const {
  const size_t d = dimensions();
  SENSORD_DCHECK_GT(d, 1u);
  SENSORD_DCHECK_EQ(center.size(), d);
  if (!memo_.memo) memo_.memo = std::make_unique<CellMemo>();
  CellMemo& memo = *memo_.memo;
  const size_t cells_per_axis = static_cast<size_t>(std::ceil(1.0 / side));
  memo.first.resize(d);
  memo.last.resize(d);
  size_t count = 1;
  for (size_t i = 0; i < d; ++i) {
    // Cells whose centre lies within `radius` of center[i]. Centres grow
    // with j, so the cells kept form one run first[i] ..= last[i].
    const long lo = static_cast<long>(std::floor((center[i] - radius) / side));
    const long hi = static_cast<long>(std::floor((center[i] + radius) / side));
    size_t kept = 0;
    for (long j = std::max(0L, lo);
         j <= hi && j < static_cast<long>(cells_per_axis); ++j) {
      const double a = static_cast<double>(j) * side;
      if (std::fabs(a + 0.5 * side - center[i]) > radius) continue;
      if (kept++ == 0) memo.first[i] = static_cast<size_t>(j);
      memo.last[i] = static_cast<size_t>(j);
    }
    if (kept == 0) return {};
    SENSORD_DCHECK_EQ(kept, memo.last[i] - memo.first[i] + 1);
    count *= kept;
  }

  bool memoise = true;
  size_t grid_cells = 1;
  for (size_t i = 0; i < d && memoise; ++i) {
    memoise = cells_per_axis <= kMaxCellMemoCells / grid_cells;
    grid_cells *= cells_per_axis;
  }
  if (!memoise) {
    // Too large a grid to keep: compute the listed cells into the per-call
    // buffer.
    std::vector<size_t> stride(d, 1);
    for (size_t i = d - 1; i-- > 0;) {
      stride[i] = stride[i + 1] * (memo.last[i + 1] - memo.first[i + 1] + 1);
    }
    memo.out.assign(count, 0.0);
    AccumulateCellMasses(side, memo.first.data(), memo.last.data(),
                         stride.data(), memo.out.data());
    return memo.out;
  }

  if (memo.side != side) {  // first call, or another grid: start afresh
    memo.side = side;
    memo.mass.assign(grid_cells, 0.0);
    memo.known.assign(grid_cells, 0);
    memo.stride.assign(d, 1);
    for (size_t i = d - 1; i-- > 0;) {
      memo.stride[i] = memo.stride[i + 1] * cells_per_axis;
    }
    memo.fill_first.resize(d);
    memo.fill_last.resize(d);
    memo.pos.resize(d);
  }
  // The bounding sub-box of the listed cells not yet known.
  bool any_unknown = false;
  ForEachCell(d, memo.first.data(), memo.last.data(), memo.stride.data(),
              memo.pos.data(), [&memo, &any_unknown, d](size_t offset) {
                if (memo.known[offset]) return;
                for (size_t i = 0; i < d; ++i) {
                  const size_t j = memo.pos[i];
                  memo.fill_first[i] =
                      any_unknown ? std::min(memo.fill_first[i], j) : j;
                  memo.fill_last[i] =
                      any_unknown ? std::max(memo.fill_last[i], j) : j;
                }
                any_unknown = true;
              });
  if (any_unknown) {
    // Known cells inside the sub-box are computed again. A cell's mass
    // depends only on the rows that reach it, never on the sub-box it was
    // computed in, so they get back the bits they had.
    Metrics().cell_memo_fills->Increment();
    ForEachCell(d, memo.fill_first.data(), memo.fill_last.data(),
                memo.stride.data(), memo.pos.data(), [&memo](size_t offset) {
                  memo.mass[offset] = 0.0;
                  memo.known[offset] = 1;
                });
    size_t base = 0;
    for (size_t i = 0; i < d; ++i) base += memo.fill_first[i] * memo.stride[i];
    AccumulateCellMasses(side, memo.fill_first.data(), memo.fill_last.data(),
                         memo.stride.data(), memo.mass.data() + base);
  } else {
    Metrics().cell_memo_hits->Increment();
  }
  memo.out.resize(count);
  size_t k = 0;
  ForEachCell(d, memo.first.data(), memo.last.data(), memo.stride.data(),
              memo.pos.data(), [&memo, &k](size_t offset) {
                memo.out[k++] = memo.mass[offset];
              });
  return memo.out;
}

void KernelDensityEstimator::AccumulateCellMasses(double side,
                                                  const size_t* first,
                                                  const size_t* last,
                                                  const size_t* stride,
                                                  double* dst) const {
  const size_t d = dimensions();
  SENSORD_DCHECK_EQ(stride[d - 1], 1u);
  // Per axis: each cell's lower edge, and the current row's mass in it.
  std::vector<std::vector<double>> edge(d), per_dim(d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = first[i]; j <= last[i]; ++j) {
      edge[i].push_back(static_cast<double>(j) * side);
    }
    per_dim[i].resize(edge[i].size());
  }
  // Per row and axis: the cells its support reaches, [reach_lo, reach_hi),
  // and among them the span of non-zero mass, [span_lo, span_hi); the
  // odometer position over axes 0 .. d-2.
  std::vector<size_t> reach_lo(d), reach_hi(d), span_lo(d), span_hi(d),
      pos(d);
  std::vector<double> outer(d);  // per_dim[i][pos[i]] for i < d-1

  // The rows whose support reaches the sub-box on the primary axis, found
  // with the reach test's own comparisons (each is monotone in the
  // coordinate), so whether a row is swept never depends on where the
  // sub-box ends.
  const size_t axis = primary_axis_;
  const double axis_b = kernels_[axis].bandwidth();
  const double axis_lo = edge[axis].front();
  const double axis_hi = edge[axis].back() + side;
  const size_t row_begin = FirstRowWhere(
      sample_, axis,
      [axis_b, axis_lo](double t) { return t + axis_b > axis_lo; });
  const size_t row_end = std::max(
      row_begin, FirstRowWhere(sample_, axis, [axis_b, axis_hi](double t) {
        return !(t - axis_b < axis_hi);
      }));
  for (size_t row = row_begin; row < row_end; ++row) {
    const double* t = sample_.Row(row);
    // The reach test decides which rows a cell sums: a row outside the
    // support's reach adds nothing, whatever its rounded mass. Each half of
    // the test is monotone in the cell index, so the cells a row reaches on
    // an axis form one run [reach_lo, reach_hi).
    bool reaches = true;
    for (size_t i = 0; i < d && reaches; ++i) {
      const double b = kernels_[i].bandwidth();
      size_t lo = 0, hi = edge[i].size();
      while (lo < hi && !(t[i] - b < edge[i][lo] + side)) ++lo;
      while (hi > lo && !(t[i] + b > edge[i][hi - 1])) --hi;
      reach_lo[i] = lo;
      reach_hi[i] = hi;
      reaches = lo < hi;
    }
    if (!reaches) continue;

    bool any_negative = false;
    bool any_empty = false;
    for (size_t i = 0; i < d; ++i) {
      std::vector<double>& masses = per_dim[i];
      span_lo[i] = masses.size();
      span_hi[i] = 0;
      for (size_t j = reach_lo[i]; j < reach_hi[i]; ++j) {
        const double a = edge[i][j];
        const double m = kernels_[i].MassInInterval(t[i], a, a + side);
        masses[j] = m;
        if (m == 0.0) continue;
        span_lo[i] = std::min(span_lo[i], j);
        span_hi[i] = j + 1;
        any_negative = any_negative || m < 0.0;
      }
      any_empty = any_empty || span_hi[i] == 0;
    }
    if (any_negative) {
      // The product below stops at the first non-positive partial and still
      // adds it, so a negative factor (should IntegralOver ever round a mass
      // below zero near the edge of the support) reaches cells whose product
      // a zero factor further down would otherwise clear: walk every cell
      // the row reaches.
      for (size_t i = 0; i < d; ++i) {
        span_lo[i] = reach_lo[i];
        span_hi[i] = reach_hi[i];
      }
    } else if (any_empty) {
      continue;  // every cell's product has a zero factor
    }

    // Outer product accumulation over the spans: axes 0 .. d-2 advance as
    // an odometer, the last one is the contiguous inner loop. Each cell
    // gets ((1.0 * m[d-1]) * m[d-2]) ... * m[0], stopping at the first
    // non-positive partial. Cells outside a span get a zero product, and
    // adding 0.0 leaves them as they are, so skipping them is bit-identical.
    const double* inner = per_dim[d - 1].data();
    for (size_t i = 0; i + 1 < d; ++i) pos[i] = span_lo[i];
    for (;;) {
      size_t base = 0;
      for (size_t i = 0; i + 1 < d; ++i) {
        base += pos[i] * stride[i];
        outer[i] = per_dim[i][pos[i]];
      }
      double* out = dst + base;
      const double next = outer[d - 2];  // kept in a register across stores
      for (size_t j = span_lo[d - 1]; j < span_hi[d - 1]; ++j) {
        double m = inner[j];
        if (m > 0.0) {
          m *= next;
          for (size_t i = d - 2; i-- > 0 && m > 0.0;) m *= outer[i];
        }
        out[j] += m;
      }
      size_t i = d - 1;
      while (i > 0 && ++pos[i - 1] == span_hi[i - 1]) {
        pos[i - 1] = span_lo[i - 1];
        --i;
      }
      if (i == 0) break;
    }
  }
}

size_t KernelDensityEstimator::MemoryBytes(size_t bytes_per_number) const {
  const size_t numbers = sample_size_ * dimensions() + dimensions();
  return numbers * bytes_per_number;
}

size_t KernelDensityEstimator::ResidentBytes() const {
  size_t bytes = sample_.ResidentBytes() +
                 block_sums_.capacity() * sizeof(double) +
                 kernels_.capacity() * sizeof(EpanechnikovKernel);
  if (const CellMemo* memo = memo_.memo.get()) {
    bytes += sizeof(CellMemo) + memo->mass.capacity() * sizeof(double) +
             memo->known.capacity() * sizeof(uint8_t) +
             memo->out.capacity() * sizeof(double);
    for (const std::vector<size_t>* v :
         {&memo->stride, &memo->first, &memo->last, &memo->fill_first,
          &memo->fill_last, &memo->pos}) {
      bytes += v->capacity() * sizeof(size_t);
    }
  }
  return bytes;
}

}  // namespace sensord
