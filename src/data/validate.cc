#include "data/validate.h"

#include <cmath>

#include "obs/metrics.h"

namespace sensord {
namespace {

struct IngestMetrics {
  obs::Counter* accepted;
  obs::Counter* rejected_nonfinite;
  obs::Counter* rejected_range;
};

const IngestMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const IngestMetrics m{
      registry.GetCounter("ingest.accepted"),
      registry.GetCounter("ingest.rejected.nonfinite"),
      registry.GetCounter("ingest.rejected.range")};
  return m;
}

}  // namespace

IngestValidator::IngestValidator(const IngestPolicy& policy)
    : policy_(policy) {}

IngestVerdict IngestValidator::Check(const Point& reading) {
  for (double c : reading) {
    if (!std::isfinite(c)) {
      ++rejected_;
      Metrics().rejected_nonfinite->Increment();
      return IngestVerdict::kNonFinite;
    }
  }
  for (double c : reading) {
    if (c < policy_.min_value || c > policy_.max_value) {
      ++rejected_;
      Metrics().rejected_range->Increment();
      return IngestVerdict::kOutOfRange;
    }
  }
  ++accepted_;
  Metrics().accepted->Increment();
  return IngestVerdict::kAccept;
}

}  // namespace sensord
