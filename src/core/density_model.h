// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The per-node online density model — the paper's core data structure.
//
// Section 5: each sensor summarizes the sliding window of its stream with
// (i) a chain sample R of the window and (ii) an epsilon-approximate
// standard deviation per dimension, and materializes a kernel density
// estimator (Epanechnikov kernels over R, Scott's-rule bandwidths from the
// approximate sigmas) whenever a query needs one. Total memory is the
// paper's Theorem 1 bound, O(d(|R| + (1/eps^2) log |W|)).
//
// Materializing is cheap because, from its first query on, the model keeps
// a copy of the sample in the estimator's canonical order and patches it
// on every sample change (DESIGN.md §13): a rebuild copies that buffer and
// never sorts. A model that is never queried never creates the buffer.
//
// The same class serves leaves and leaders: a leader's model consumes the
// thinned stream of sample values its children propagate (Section 5.1) and
// is configured with the *logical* population it speaks for, so that
// N(p, r) estimates refer to the union of the leaf windows below it.

#ifndef SENSORD_CORE_DENSITY_MODEL_H_
#define SENSORD_CORE_DENSITY_MODEL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.h"
#include "stats/kde.h"
#include "stream/chain_sample.h"
#include "stream/variance_sketch.h"
#include "util/flat_points.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {

class SnapshotReader;
class SnapshotWriter;

/// Online, bounded-memory approximation of the sliding-window distribution
/// of a d-dimensional stream.
class DensityModel {
 public:
  /// Pre: config.dimensions >= 1, config.sample_size >= 1,
  /// config.window_size >= 1, 0 < config.epsilon <= 1.
  DensityModel(const DensityModelConfig& config, Rng rng);

  /// Feeds the next observation. Returns true iff the observation entered
  /// the sample — the event that triggers probabilistic propagation to the
  /// parent in D3 and MGDD (Figure 4, "if (S(i) included in R)").
  /// Pre: p.size() == config().dimensions, and every coordinate is finite
  /// (screen raw readings through an IngestValidator first): the canonical
  /// sample order has no place for NaN.
  bool Observe(const Point& p);

  /// True once the model can answer queries (at least one observation).
  bool Ready() const { return sample_.seeded(); }

  /// The current kernel estimator, rebuilt lazily when the sample changed
  /// or the cached estimator aged past config.max_estimator_age. The first
  /// call starts the maintained canonical buffer that later rebuilds copy.
  /// Pre: Ready().
  const KernelDensityEstimator& Estimator() const;

  /// The population count the model's neighbourhood estimates refer to:
  /// config.logical_window_count scaled by warm-up progress, or
  /// min(total_seen, window_size) if no logical count was configured.
  double WindowCount() const;

  /// Estimated per-dimension standard deviations of the window.
  std::vector<double> StdDevs() const;

  /// The per-dimension spreads fed to Scott's rule: StdDevs(), tempered by
  /// the sample IQR when config.robust_bandwidth is set. This is what the
  /// model's own Estimator() uses, and what MGDD broadcasts as sigma^g so
  /// replica bandwidths match the root's.
  std::vector<double> BandwidthSpreads() const;

  /// Estimated per-dimension means of the window.
  std::vector<double> Means() const;

  /// Total observations fed so far.
  uint64_t total_seen() const { return sample_.total_seen(); }

  const DensityModelConfig& config() const { return config_; }
  const ChainSample& sample() const { return sample_; }
  const VarianceSketch& variance_sketch(size_t dim) const {
    return sketches_[dim];
  }

  /// The maintained copy of the sample in the cached estimator's canonical
  /// order; empty before the first Estimator() call and after Restore().
  const FlatPoints& canonical_sample() const { return canonical_; }

  /// Memory footprint of the retained state (sample + variance sketches)
  /// under the paper's bytes-per-number accounting (Section 10.3).
  size_t MemoryBytes(size_t bytes_per_number) const;

  /// Heap bytes the model holds on this machine: the chain sample's and the
  /// sketches' buffers, the cached estimator, the maintained canonical
  /// buffer and the reused change report and scratch, all by capacity.
  size_t ResidentBytes() const;

  /// The Theorem 1 upper bound for the same accounting.
  size_t TheoreticalBoundBytes(size_t bytes_per_number) const;

  /// Appends the model's full online state — chain sample and per-dimension
  /// variance sketches — to `writer`, for checkpoint/restore
  /// (core/snapshot.h). The cached estimator is derived state and is not
  /// written; a restored model rebuilds it on first query.
  void Serialize(SnapshotWriter* writer) const;

  /// Overwrites this model with state previously written by Serialize() on
  /// a model with the same configuration. Returns false (model unspecified,
  /// safe to destroy or reassign) on reader failure or config mismatch.
  /// Drops the cached estimator and the maintained canonical buffer; the
  /// next Estimator() starts both afresh from the restored sample.
  bool Restore(SnapshotReader* reader);

 private:
  DensityModelConfig config_;
  ChainSample sample_;
  std::vector<VarianceSketch> sketches_;

  // Lazily rebuilt estimator cache (see ChainSample::version).
  mutable std::optional<KernelDensityEstimator> cached_;
  mutable uint64_t cached_sample_version_ = 0;
  mutable uint64_t cached_at_count_ = 0;

  // The active sample in the cached estimator's canonical order
  // (KernelDensityEstimator::CanonicalLess on its primary axis), or empty
  // while not maintained: it is created by the first Estimator() call and
  // dropped by Restore(). Observe() patches it through sample_changes_ (the
  // chain sample's reused change report), one
  // KernelDensityEstimator::ReplaceCanonicalRow() per departed -> arrived
  // pair, and KernelDensityEstimator::RebuildCanonical() rebuilds from it.
  // coord_scratch_ is the robust-bandwidth IQR's warm buffer.
  // mutable because rebuilds happen inside const queries; a DensityModel is
  // single-owner state (DESIGN.md §12).
  mutable FlatPoints canonical_;
  SampleChanges sample_changes_;
  mutable std::vector<double> coord_scratch_;
};

}  // namespace sensord

#endif  // SENSORD_CORE_DENSITY_MODEL_H_
