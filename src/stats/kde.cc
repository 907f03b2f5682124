#include "stats/kde.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/snapshot.h"
#include "obs/metrics.h"
#include "stats/bandwidth.h"

#include "util/check.h"

namespace sensord {
namespace {

// Per-query cost telemetry: the paper's O(d|R|) box-query bound — and the
// O(log|R| + |R'|) pruned paths — made observable as the number of kernel
// terms actually evaluated per query. terms_per_query records, for every
// box (batched or not), the primary-axis candidate count |R'|;
// batch_swept_terms counts the rows a batched sweep actually loads (the
// union candidate range), which is what the batching saves on top of
// per-box pruning.
struct KdeMetrics {
  obs::Counter* box_queries;
  obs::Histogram* terms_per_query;
  obs::Counter* batch_swept_terms;
};

const KdeMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const KdeMetrics m{
      registry.GetCounter("stats.kde.box_queries"),
      registry.GetHistogram("stats.kde.terms_per_query",
                            obs::SizeBoundaries()),
      registry.GetCounter("stats.kde.batch_swept_terms")};
  return m;
}

}  // namespace

StatusOr<KernelDensityEstimator> KernelDensityEstimator::Create(
    FlatPoints sample, std::vector<double> bandwidths) {
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
  return KernelDensityEstimator(std::move(sample), std::move(bandwidths));
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
    FlatPoints sample, const std::vector<double>& stddevs) {
  if (sample.empty()) {
    return Status::InvalidArgument("KDE requires a non-empty sample");
  }
  const size_t n = sample.size();
  return Create(std::move(sample), ScottBandwidths(stddevs, n));
}

StatusOr<KernelDensityEstimator>
KernelDensityEstimator::CreateWithScottBandwidths(
    const std::vector<Point>& sample, const std::vector<double>& stddevs) {
  if (sample.empty()) {
    return Status::InvalidArgument("KDE requires a non-empty sample");
  }
  return Create(sample, ScottBandwidths(stddevs, sample.size()));
}

KernelDensityEstimator::KernelDensityEstimator(FlatPoints sample,
                                               std::vector<double> bandwidths)
    : sample_(std::move(sample)), sample_size_(sample_.size()) {
  kernels_.reserve(bandwidths.size());
  for (double b : bandwidths) kernels_.emplace_back(b);
  Canonicalize();
}

void KernelDensityEstimator::Canonicalize() {
  const size_t d = kernels_.size();
  // Primary axis: the axis where a sorted-order window [lo - B, hi + B]
  // prunes best, i.e. with the largest spread/bandwidth ratio. Ties go to
  // the smallest axis index (strict > below), so the choice — and with it
  // the canonical order and every downstream artifact — is deterministic.
  // Always axis 0 in 1-d.
  if (d > 1) {
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
  if (d == 1) {
    // The flat buffer *is* the sorted coordinate array the 1-d fast path
    // binary-searches. Equal finite doubles are bit-identical except for
    // ±0.0, so a plain sort that then puts the zero run's -0.0s first
    // yields the canonical order, cheaper than sorting under CanonicalLess.
    std::vector<double>& coords = *sample_.mutable_data();
    std::sort(coords.begin(), coords.end());
    const auto zeros = std::equal_range(coords.begin(), coords.end(), 0.0);
    std::partition(zeros.first, zeros.second,
                   [](double z) { return std::signbit(z); });
    return;
  }
  // CanonicalLess is a total order on the rows' bit patterns, so the
  // unstable in-place heapsort still yields the one canonical buffer.
  const FlatPoints& s = sample_;
  sample_.SortRows([&s, axis, d](size_t a, size_t b) {
    return CanonicalLess(s.Row(a), s.Row(b), d, axis);
  });
}

std::vector<double> KernelDensityEstimator::bandwidths() const {
  std::vector<double> out;
  out.reserve(kernels_.size());
  for (const auto& k : kernels_) out.push_back(k.bandwidth());
  return out;
}

size_t KernelDensityEstimator::LowerBoundRow(double v) const {
  size_t lo = 0, hi = sample_size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (sample_.At(mid, primary_axis_) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t KernelDensityEstimator::UpperBoundRow(double v) const {
  size_t lo = 0, hi = sample_size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (sample_.At(mid, primary_axis_) <= v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::pair<size_t, size_t> KernelDensityEstimator::CandidateRows(
    double axis_lo, double axis_hi) const {
  const double b = kernels_[primary_axis_].bandwidth();
  const size_t begin = LowerBoundRow(axis_lo - b);
  const size_t end = UpperBoundRow(axis_hi + b);
  return {begin, std::max(begin, end)};
}

double KernelDensityEstimator::Interval1dProbability(double lo,
                                                     double hi) const {
  const EpanechnikovKernel& kernel = kernels_[0];
  const double b = kernel.bandwidth();
  const std::vector<double>& sorted = sample_.data();
  // Kernels centred in [lo - B, hi + B] may contribute; kernels centred in
  // [lo + B, hi - B] have their full support inside the interval and
  // contribute exactly 1 each.
  const auto touch_begin =
      std::lower_bound(sorted.begin(), sorted.end(), lo - b);
  const auto touch_end =
      std::upper_bound(sorted.begin(), sorted.end(), hi + b);
  Metrics().terms_per_query->Record(
      static_cast<double>(touch_end - touch_begin));

  double mass = 0.0;
  auto partial_until = touch_end;
  auto partial_resume = touch_end;
  if (lo + b <= hi - b) {
    const auto full_begin =
        std::lower_bound(touch_begin, touch_end, lo + b);
    const auto full_end = std::upper_bound(full_begin, touch_end, hi - b);
    mass += static_cast<double>(full_end - full_begin);
    partial_until = full_begin;
    partial_resume = full_end;
  }
  for (auto it = touch_begin; it != partial_until; ++it) {
    mass += kernel.MassInInterval(*it, lo, hi);
  }
  for (auto it = partial_resume; it != touch_end; ++it) {
    mass += kernel.MassInInterval(*it, lo, hi);
  }
  return mass / static_cast<double>(sample_size_);
}

double KernelDensityEstimator::BoxProbability(const Point& lo,
                                              const Point& hi) const {
  SENSORD_DCHECK_EQ(lo.size(), dimensions());
  SENSORD_DCHECK_EQ(hi.size(), dimensions());
  Metrics().box_queries->Increment();
  for (size_t i = 0; i < lo.size(); ++i) {
    if (lo[i] > hi[i]) return 0.0;  // inverted box: empty
  }
  if (dimensions() == 1) return Interval1dProbability(lo[0], hi[0]);

  // d > 1: only the canonical rows whose primary-axis coordinate falls in
  // [lo_a - B_a, hi_a + B_a] can have nonzero mass in the box; every other
  // row's primary-axis factor is exactly 0, so restricting the sweep keeps
  // the sum bit-identical to the full canonical-order sweep.
  const size_t d = dimensions();
  const auto [begin, end] =
      CandidateRows(lo[primary_axis_], hi[primary_axis_]);
  Metrics().terms_per_query->Record(static_cast<double>(end - begin));
  double total = 0.0;
  for (size_t row = begin; row < end; ++row) {
    const double* t = sample_.Row(row);
    double contrib = 1.0;
    for (size_t i = 0; i < d && contrib > 0.0; ++i) {
      contrib *= kernels_[i].MassInInterval(t[i], lo[i], hi[i]);
    }
    total += contrib;
  }
  return total / static_cast<double>(sample_size_);
}

void KernelDensityEstimator::BoxProbabilityBatch(
    const std::vector<Point>& lo, const std::vector<Point>& hi,
    std::vector<double>* out) const {
  const size_t queries = lo.size();
  SENSORD_DCHECK_EQ(hi.size(), queries);
  if (queries == 0) {
    out->clear();
    return;
  }
  if (dimensions() == 1) {
    // The sorted 1-d path only touches kernels intersecting each query;
    // batching could not reduce that further.
    out->resize(queries);
    for (size_t q = 0; q < queries; ++q) {
      (*out)[q] = BoxProbability(lo[q], hi[q]);
    }
    return;
  }

  const size_t d = dimensions();
  out->assign(queries, 0.0);
  // Union of the live boxes, seeded empty at ±infinity: the batch must not
  // assume the [0,1]^d domain, or out-of-domain boxes would widen the union
  // instead of leaving it empty (and a batch of them would sweep the whole
  // sample for an all-zero answer).
  std::vector<char> live(queries, 1);
  Point batch_lo(d, std::numeric_limits<double>::infinity());
  Point batch_hi(d, -std::numeric_limits<double>::infinity());
  size_t live_count = 0;
  for (size_t q = 0; q < queries; ++q) {
    SENSORD_DCHECK_EQ(lo[q].size(), d);
    SENSORD_DCHECK_EQ(hi[q].size(), d);
    Metrics().box_queries->Increment();
    for (size_t i = 0; i < d; ++i) {
      if (lo[q][i] > hi[q][i]) live[q] = 0;  // inverted box: empty
    }
    if (!live[q]) continue;
    // Metric parity with the per-query path: record this box's own
    // primary-axis candidate count, exactly what BoxProbability would.
    const auto [q_begin, q_end] =
        CandidateRows(lo[q][primary_axis_], hi[q][primary_axis_]);
    Metrics().terms_per_query->Record(static_cast<double>(q_end - q_begin));
    ++live_count;
    for (size_t i = 0; i < d; ++i) {
      batch_lo[i] = std::min(batch_lo[i], lo[q][i]);
      batch_hi[i] = std::max(batch_hi[i], hi[q][i]);
    }
  }
  if (live_count == 0) return;

  // One sweep over the union's candidate range; each row is loaded once and
  // support-tested against the union box before any per-box work. Skipped
  // rows (outside the range or failing the union test) add exactly 0.0 to
  // every box, so per-box accumulation order matches BoxProbability's
  // canonical-order sum bit for bit.
  const auto [sweep_begin, sweep_end] =
      CandidateRows(batch_lo[primary_axis_], batch_hi[primary_axis_]);
  Metrics().batch_swept_terms->Increment(
      static_cast<uint64_t>(sweep_end - sweep_begin));
  for (size_t row = sweep_begin; row < sweep_end; ++row) {
    const double* t = sample_.Row(row);
    bool overlaps = true;
    for (size_t i = 0; i < d && overlaps; ++i) {
      const double b = kernels_[i].bandwidth();
      overlaps = t[i] + b > batch_lo[i] && t[i] - b < batch_hi[i];
    }
    if (!overlaps) continue;
    for (size_t q = 0; q < queries; ++q) {
      if (!live[q]) continue;
      double contrib = 1.0;
      for (size_t i = 0; i < d && contrib > 0.0; ++i) {
        contrib *= kernels_[i].MassInInterval(t[i], lo[q][i], hi[q][i]);
      }
      (*out)[q] += contrib;
    }
  }
  // Divide (not multiply by a reciprocal): bit-identical to BoxProbability.
  for (size_t q = 0; q < queries; ++q) {
    (*out)[q] /= static_cast<double>(sample_size_);
  }
}

double KernelDensityEstimator::Pdf(const Point& p) const {
  SENSORD_DCHECK_EQ(p.size(), dimensions());
  if (dimensions() == 1) {
    const std::vector<double>& sorted = sample_.data();
    const double b = kernels_[0].bandwidth();
    const auto begin =
        std::lower_bound(sorted.begin(), sorted.end(), p[0] - b);
    const auto end = std::upper_bound(sorted.begin(), sorted.end(), p[0] + b);
    double total = 0.0;
    for (auto it = begin; it != end; ++it) {
      total += kernels_[0].Value(p[0] - *it);
    }
    return total / static_cast<double>(sample_size_);
  }
  // d > 1: rows outside the primary-axis support window have a zero kernel
  // factor on that axis, so the candidate restriction is bit-identical to
  // the full canonical-order sweep (same argument as BoxProbability).
  const size_t d = dimensions();
  const auto [begin, end] = CandidateRows(p[primary_axis_], p[primary_axis_]);
  double total = 0.0;
  for (size_t row = begin; row < end; ++row) {
    const double* t = sample_.Row(row);
    double contrib = 1.0;
    for (size_t i = 0; i < d && contrib > 0.0; ++i) {
      contrib *= kernels_[i].Value(p[i] - t[i]);
    }
    total += contrib;
  }
  return total / static_cast<double>(sample_size_);
}

void KernelDensityEstimator::Serialize(SnapshotWriter* writer) const {
  writer->PutDoubles(bandwidths());
  writer->PutU32(static_cast<uint32_t>(sample_size_));
  // Same bytes PutPoint() would emit per row, without materializing one.
  const uint32_t d = static_cast<uint32_t>(dimensions());
  for (size_t row = 0; row < sample_size_; ++row) {
    writer->PutU32(d);
    const double* t = sample_.Row(row);
    for (uint32_t i = 0; i < d; ++i) writer->PutDouble(t[i]);
  }
}

StatusOr<KernelDensityEstimator> KernelDensityEstimator::Deserialize(
    SnapshotReader* reader) {
  std::vector<double> bandwidths = reader->TakeDoubles();
  const uint32_t n = reader->TakeU32();
  FlatPoints sample(bandwidths.size());
  sample.Reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t point_dims = reader->TakeU32();
    if (!reader->ok()) break;
    if (point_dims != bandwidths.size()) {
      return Status::InvalidArgument(
          "sample point dimensionality does not match bandwidth count");
    }
    double* row = sample.AppendRow();
    for (uint32_t c = 0; c < point_dims; ++c) row[c] = reader->TakeDouble();
  }
  if (!reader->ok()) {
    return Status::InvalidArgument("KDE snapshot truncated");
  }
  return Create(std::move(sample), std::move(bandwidths));
}

size_t KernelDensityEstimator::MemoryBytes(size_t bytes_per_number) const {
  const size_t numbers = sample_size_ * dimensions() + dimensions();
  return numbers * bytes_per_number;
}

}  // namespace sensord
