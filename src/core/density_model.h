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
  /// Pre: p.size() == config().dimensions.
  bool Observe(const Point& p);

  /// True once the model can answer queries (at least one observation).
  bool Ready() const { return sample_.seeded(); }

  /// The current kernel estimator, rebuilt lazily when the sample changed
  /// or the cached estimator aged past config.max_estimator_age.
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

  /// Memory footprint of the retained state (sample + variance sketches)
  /// under the paper's bytes-per-number accounting (Section 10.3).
  size_t MemoryBytes(size_t bytes_per_number) const;

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
  bool Restore(SnapshotReader* reader);

 private:
  // BandwidthSpreads() over an already-exported flat snapshot of the sample
  // (the rebuild path computes the snapshot once and reuses it here).
  std::vector<double> SpreadsFrom(const FlatPoints& snapshot) const;

  DensityModelConfig config_;
  ChainSample sample_;
  std::vector<VarianceSketch> sketches_;

  // Lazily rebuilt estimator cache (see ChainSample::version).
  mutable std::optional<KernelDensityEstimator> cached_;
  mutable uint64_t cached_sample_version_ = 0;
  mutable uint64_t cached_at_count_ = 0;

  // Warm buffers for the rebuild path (DESIGN.md §13): the sample is
  // exported into rebuild_scratch_, handed to the new estimator, and the
  // displaced estimator's buffer is stolen back as the next scratch — two
  // heap blocks ping-pong forever, so a steady-state rebuild performs zero
  // per-point allocations. coord_scratch_ serves the robust-bandwidth IQR
  // the same way. mutable for the same reason as cached_: rebuilds happen
  // inside const queries, and a DensityModel is single-owner state (the
  // simulator's event loop is serial, so no model is shared across
  // threads).
  mutable FlatPoints rebuild_scratch_;
  mutable std::vector<double> coord_scratch_;
};

}  // namespace sensord

#endif  // SENSORD_CORE_DENSITY_MODEL_H_
