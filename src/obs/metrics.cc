#include "obs/metrics.h"

#include <algorithm>

#include "util/check.h"

namespace sensord::obs {

std::vector<double> Histogram::ExponentialBoundaries(double start,
                                                     double factor,
                                                     size_t count) {
  SENSORD_CHECK_GT(start, 0.0);
  SENSORD_CHECK_GT(factor, 1.0);
  SENSORD_CHECK_GE(count, 1u);
  std::vector<double> out;
  out.reserve(count);
  double b = start;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

std::vector<double> Histogram::LinearBoundaries(double start, double step,
                                                size_t count) {
  SENSORD_CHECK_GT(step, 0.0);
  SENSORD_CHECK_GE(count, 1u);
  std::vector<double> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(start + static_cast<double>(i) * step);
  }
  return out;
}

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      buckets_(boundaries_.size() + 1, 0) {
  SENSORD_CHECK(!boundaries_.empty());
  for (size_t i = 1; i < boundaries_.size(); ++i) {
    SENSORD_CHECK_LT(boundaries_[i - 1], boundaries_[i]);
  }
}

void Histogram::Record(double value) {
  // First boundary >= value; values above the last boundary land in the
  // overflow bucket at index boundaries_.size().
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(boundaries_.begin(), boundaries_.end(), value) -
      boundaries_.begin());
  ++buckets_[bucket];
  sum_ += value;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (uint64_t in_bucket : buckets_) total += in_bucket;
  return total;
}

double Histogram::Quantile(double q) const {
  SENSORD_DCHECK_GE(q, 0.0);
  SENSORD_DCHECK_LE(q, 1.0);
  const uint64_t total = Count();
  if (total == 0) return 0.0;
  // Rank of the requested quantile, 1-based.
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t i = 0; i <= boundaries_.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets_[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= rank) {
      if (i == boundaries_.size()) return boundaries_.back();  // overflow
      const double lo = i == 0 ? 0.0 : boundaries_[i - 1];
      const double hi = boundaries_[i];
      const double frac =
          std::clamp((rank - cumulative) / in_bucket, 0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return boundaries_.back();
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  sum_ = 0.0;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrumented call sites cache metric pointers in
  // function-local statics, which must outlive every other static
  // destructor.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::CheckKindCollision(const std::string& name,
                                         MetricKind kind) const {
  SENSORD_CHECK((kind == MetricKind::kCounter || counters_.count(name) == 0) &&
                "metric name already registered as a counter");
  SENSORD_CHECK((kind == MetricKind::kGauge || gauges_.count(name) == 0) &&
                "metric name already registered as a gauge");
  SENSORD_CHECK(
      (kind == MetricKind::kHistogram || histograms_.count(name) == 0) &&
      "metric name already registered as a histogram");
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  CheckKindCollision(name, MetricKind::kCounter);
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  CheckKindCollision(name, MetricKind::kGauge);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> boundaries) {
  CheckKindCollision(name, MetricKind::kHistogram);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot.reset(new Histogram(std::move(boundaries)));
  return slot.get();
}

size_t MetricsRegistry::size() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricKind::kCounter;
    s.counter_value = counter->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricKind::kGauge;
    s.gauge_value = gauge->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, hist] : histograms_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricKind::kHistogram;
    s.hist_count = hist->Count();
    s.hist_sum = hist->Sum();
    s.hist_p50 = hist->Quantile(0.50);
    s.hist_p95 = hist->Quantile(0.95);
    s.hist_p99 = hist->Quantile(0.99);
    s.hist_boundaries = hist->boundaries();
    s.hist_buckets.reserve(s.hist_boundaries.size() + 1);
    for (size_t i = 0; i <= s.hist_boundaries.size(); ++i) {
      s.hist_buckets.push_back(hist->BucketCount(i));
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::ResetValues() {
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

std::vector<double> LatencyBoundariesNs() {
  return Histogram::ExponentialBoundaries(16.0, 2.0, 26);
}

std::vector<double> SizeBoundaries() {
  return Histogram::ExponentialBoundaries(1.0, 2.0, 16);
}

std::vector<double> DurationBoundariesS() {
  return Histogram::ExponentialBoundaries(0.125, 2.0, 16);
}

std::vector<double> DetectionLatencyBoundariesS() {
  return Histogram::ExponentialBoundaries(1e-4, 2.0, 24);
}

}  // namespace sensord::obs
