#include "core/range_query.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace sensord {

RangeQueryEngine::RangeQueryEngine(const DistributionEstimator* estimator,
                                   double window_count)
    : estimator_(estimator), window_count_(window_count) {
  SENSORD_CHECK(estimator_ != nullptr);
  SENSORD_CHECK_GE(window_count_, 0.0);
}

double RangeQueryEngine::Selectivity(const Point& lo, const Point& hi) const {
  return estimator_->BoxProbability(lo, hi);
}

double RangeQueryEngine::Count(const Point& lo, const Point& hi) const {
  return Selectivity(lo, hi) * window_count_;
}

StatusOr<double> RangeQueryEngine::Average(size_t dim, const Point& lo,
                                           const Point& hi,
                                           size_t slices) const {
  SENSORD_CHECK_LT(dim, estimator_->dimensions());
  SENSORD_CHECK_GE(slices, 1u);
  if (!(hi[dim] > lo[dim])) {
    return Status::InvalidArgument("degenerate query box");
  }
  // Slice only the part of [lo, hi] that can hold mass: an infinite or
  // far-off bound would otherwise stretch the slices past the data.
  const auto [support_lo, support_hi] = estimator_->Support(dim);
  const double from = std::max(lo[dim], support_lo);
  const double to = std::min(hi[dim], support_hi);
  if (!(to > from)) {
    return Status::NotFound("query box holds no probability mass");
  }
  const double width = (to - from) / static_cast<double>(slices);
  if (!std::isfinite(width)) {
    return Status::InvalidArgument("unbounded query box");
  }
  // One box query per slice; the slices differ from [lo, hi] only on `dim`.
  Point slice_lo(lo), slice_hi(hi);
  double mass_total = 0.0;
  double weighted = 0.0;
  for (size_t s = 0; s < slices; ++s) {
    slice_lo[dim] = from + static_cast<double>(s) * width;
    slice_hi[dim] = slice_lo[dim] + width;
    const double mass = estimator_->BoxProbability(slice_lo, slice_hi);
    mass_total += mass;
    weighted += mass * (slice_lo[dim] + 0.5 * width);
  }
  if (mass_total <= 1e-12) {
    return Status::NotFound("query box holds no probability mass");
  }
  return weighted / mass_total;
}

TemporalModelStore::TemporalModelStore(size_t capacity)
    : capacity_(capacity) {
  SENSORD_CHECK_GE(capacity_, 1u);
}

void TemporalModelStore::AddSnapshot(double t,
                                     KernelDensityEstimator estimator,
                                     double window_count) {
  SENSORD_DCHECK(snapshots_.empty() || snapshots_.back().time <= t);
  snapshots_.push_back(Snapshot{t, std::move(estimator), window_count});
  while (snapshots_.size() > capacity_) snapshots_.pop_front();
}

StatusOr<double> TemporalModelStore::SelectivityOver(double t1, double t2,
                                                     const Point& lo,
                                                     const Point& hi) const {
  double sum = 0.0;
  size_t n = 0;
  for (const Snapshot& s : snapshots_) {
    if (s.time < t1 || s.time > t2) continue;
    sum += s.estimator.BoxProbability(lo, hi);
    ++n;
  }
  if (n == 0) {
    return Status::NotFound("no model snapshot in the requested interval");
  }
  return sum / static_cast<double>(n);
}

StatusOr<double> TemporalModelStore::AverageOver(double t1, double t2,
                                                 size_t dim, const Point& lo,
                                                 const Point& hi,
                                                 size_t slices) const {
  double mass_total = 0.0;
  double weighted = 0.0;
  size_t n = 0;
  for (const Snapshot& s : snapshots_) {
    if (s.time < t1 || s.time > t2) continue;
    ++n;
    RangeQueryEngine engine(&s.estimator, s.window_count);
    const double mass = s.estimator.BoxProbability(lo, hi);
    if (mass <= 1e-12) continue;
    auto avg = engine.Average(dim, lo, hi, slices);
    if (!avg.ok()) continue;
    mass_total += mass * s.window_count;
    weighted += *avg * mass * s.window_count;
  }
  if (n == 0) {
    return Status::NotFound("no model snapshot in the requested interval");
  }
  if (mass_total <= 1e-12) {
    return Status::NotFound("query box empty throughout the interval");
  }
  return weighted / mass_total;
}

}  // namespace sensord
