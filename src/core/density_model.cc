#include "core/density_model.h"

#include <algorithm>
#include <cmath>

#include "core/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/bandwidth.h"

#include "util/check.h"

namespace sensord {
namespace {

struct DensityModelMetrics {
  obs::Counter* observes;
  obs::Counter* estimator_rebuilds;
  obs::Counter* estimator_cache_hits;
  obs::Histogram* observe_ns;  // window-advance latency (timing-gated)
  obs::Histogram* rebuild_ns;  // estimator materialization (timing-gated)
};

const DensityModelMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const DensityModelMetrics m{
      registry.GetCounter("core.density_model.observes"),
      registry.GetCounter("core.density_model.estimator_rebuilds"),
      registry.GetCounter("core.density_model.estimator_cache_hits"),
      registry.GetHistogram("core.density_model.observe_ns",
                            obs::LatencyBoundariesNs()),
      registry.GetHistogram("core.density_model.rebuild_ns",
                            obs::LatencyBoundariesNs())};
  return m;
}

}  // namespace

DensityModel::DensityModel(const DensityModelConfig& config, Rng rng)
    : config_(config),
      sample_(config.sample_size, config.window_size, rng) {
  SENSORD_CHECK_GE(config_.dimensions, 1u);
  if (config_.prewarm_steady_state) sample_.PrewarmToSteadyState();
  sketches_.reserve(config_.dimensions);
  for (size_t i = 0; i < config_.dimensions; ++i) {
    sketches_.emplace_back(config_.window_size, config_.epsilon);
  }
}

bool DensityModel::Observe(const Point& p) {
  SENSORD_DCHECK_EQ(p.size(), config_.dimensions);
  SENSORD_DCHECK(std::all_of(p.begin(), p.end(),
                             [](double c) { return std::isfinite(c); }));
  const obs::ScopedTimer timer(Metrics().observe_ns);
  Metrics().observes->Increment();
  for (size_t i = 0; i < config_.dimensions; ++i) sketches_[i].Add(p[i]);
  if (canonical_.empty()) return sample_.Add(p);
  const bool entered = sample_.Add(p, &sample_changes_);
  // The buffer exists only alongside a cached estimator, whose order it
  // keeps, and only once the sample is seeded, so every change displaces
  // exactly one row. Changes apply in the order the sample made them, so a
  // row that arrived earlier in the same Add() (an expiry's new front) can
  // depart later (a restart of that chain).
  const FlatPoints& departed = sample_changes_.departed;
  const FlatPoints& arrived = sample_changes_.arrived;
  SENSORD_DCHECK_EQ(departed.size(), arrived.size());
  for (size_t k = 0; k < arrived.size(); ++k) {
    KernelDensityEstimator::ReplaceCanonicalRow(
        departed.Row(k), arrived.Row(k), cached_->primary_axis(),
        &canonical_);
  }
  return entered;
}

const KernelDensityEstimator& DensityModel::Estimator() const {
  SENSORD_CHECK(Ready());
  const uint64_t version = sample_.version();
  const uint64_t seen = sample_.total_seen();
  const bool stale = !cached_.has_value() ||
                     cached_sample_version_ != version ||
                     seen - cached_at_count_ >= config_.max_estimator_age;
  if (stale) {
    const obs::ScopedTimer timer(Metrics().rebuild_ns);
    Metrics().estimator_rebuilds->Increment();
    // Zero per-point-allocation rebuild from the maintained canonical
    // buffer (DESIGN.md §13); the first build snapshots and sorts.
    KernelDensityEstimator::RebuildCanonical(
        &cached_, &canonical_, BandwidthSpreads(),
        [this](FlatPoints* rows) { sample_.SnapshotTo(rows); });
    cached_sample_version_ = version;
    cached_at_count_ = seen;
  } else {
    Metrics().estimator_cache_hits->Increment();
  }
  return *cached_;
}

double DensityModel::WindowCount() const {
  const double seen = static_cast<double>(sample_.total_seen());
  const double window = static_cast<double>(config_.window_size);
  if (config_.logical_window_count > 0.0) {
    // Scale the logical population by warm-up progress so early estimates
    // do not claim a pool that has not accumulated yet.
    const double progress = std::min(1.0, seen / window);
    return config_.logical_window_count * progress;
  }
  return std::min(seen, window);
}

std::vector<double> DensityModel::StdDevs() const {
  std::vector<double> out;
  out.reserve(sketches_.size());
  for (const VarianceSketch& s : sketches_) out.push_back(s.StdDev());
  return out;
}

std::vector<double> DensityModel::BandwidthSpreads() const {
  std::vector<double> spreads = StdDevs();
  if (!config_.robust_bandwidth || !sample_.seeded()) return spreads;
  // Silverman's robust variant: temper each sigma with the sample IQR so
  // rare excursions do not inflate the bandwidth of the bulk. One warm
  // coordinate buffer serves every dimension; the quantiles of the sorted
  // coordinates do not depend on the order the chains are read in.
  for (size_t dim = 0; dim < spreads.size(); ++dim) {
    coord_scratch_.clear();
    for (size_t c = 0; c < sample_.sample_size(); ++c) {
      coord_scratch_.push_back(sample_.ActiveElement(c)[dim]);
    }
    std::sort(coord_scratch_.begin(), coord_scratch_.end());
    const double iqr = QuantileSorted(coord_scratch_, 0.75) -
                       QuantileSorted(coord_scratch_, 0.25);
    spreads[dim] = RobustSpread(spreads[dim], iqr);
  }
  return spreads;
}

std::vector<double> DensityModel::Means() const {
  std::vector<double> out;
  out.reserve(sketches_.size());
  for (const VarianceSketch& s : sketches_) out.push_back(s.Mean());
  return out;
}

void DensityModel::Serialize(SnapshotWriter* writer) const {
  writer->PutU32(static_cast<uint32_t>(config_.dimensions));
  sample_.Serialize(writer);
  for (const VarianceSketch& s : sketches_) s.Serialize(writer);
}

bool DensityModel::Restore(SnapshotReader* reader) {
  // Derived state goes first, so even a failed restore leaves nothing that
  // describes the old sample.
  cached_.reset();
  cached_sample_version_ = 0;
  cached_at_count_ = 0;
  canonical_.Reset(0);
  const uint32_t dimensions = reader->TakeU32();
  if (!reader->ok() || dimensions != config_.dimensions) return false;
  if (!sample_.Restore(reader)) return false;
  for (VarianceSketch& s : sketches_) {
    if (!s.Restore(reader)) return false;
  }
  return true;
}

size_t DensityModel::MemoryBytes(size_t bytes_per_number) const {
  size_t bytes = sample_.MemoryBytes(config_.dimensions, bytes_per_number);
  for (const VarianceSketch& s : sketches_) {
    bytes += s.MemoryBytes(bytes_per_number);
  }
  return bytes;
}

size_t DensityModel::ResidentBytes() const {
  size_t bytes = sample_.ResidentBytes() +
                 sketches_.capacity() * sizeof(VarianceSketch) +
                 canonical_.ResidentBytes() +
                 sample_changes_.departed.ResidentBytes() +
                 sample_changes_.arrived.ResidentBytes() +
                 coord_scratch_.capacity() * sizeof(double);
  for (const VarianceSketch& s : sketches_) bytes += s.ResidentBytes();
  if (cached_.has_value()) bytes += cached_->ResidentBytes();
  return bytes;
}

size_t DensityModel::TheoreticalBoundBytes(size_t bytes_per_number) const {
  // Theorem 1: O(d(|R| + (1/eps^2) log |W|)). The sample term charges d+1
  // numbers per chain entry with the expected O(1) entries per chain taken
  // as the worst-case 2 (active + one queued replacement), matching how the
  // paper's 10KB example charges |R| directly.
  const size_t sample_numbers =
      2 * config_.sample_size * (config_.dimensions + 1) +
      config_.sample_size;
  size_t bytes = sample_numbers * bytes_per_number;
  for (const VarianceSketch& s : sketches_) {
    bytes += s.TheoreticalBoundBytes(bytes_per_number);
  }
  return bytes;
}

}  // namespace sensord
