// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Reusable drivers for the paper's experiments (Section 10). Each bench
// binary configures one of these and formats the result like the paper's
// figure; keeping the drivers in the library also lets integration tests
// assert the headline claims (e.g. "precision and recall above 90% at the
// default parameters") on scaled-down instances.
//
//  * RunAccuracyExperiment    — Figures 7, 8, 9, 10: drive a hierarchy of
//    sensors over a workload, score D3 per level and MGDD at the leaves
//    against exact ground truth, with the kernel method (full message-level
//    simulation) or the offline histogram comparison method.
//  * RunEstimationAccuracy    — Figure 6: JS divergence between the kernel
//    estimate and the true (shifting) distribution over time, at a leaf and
//    at a parent for several sample fractions f.
//  * RunMessageScaling        — Figure 11: steady-state messages/second of
//    D3, MGDD and the centralized approach vs network size.

#ifndef SENSORD_EVAL_EXPERIMENT_H_
#define SENSORD_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/config.h"
#include "core/mgdd.h"
#include "eval/scoring.h"
#include "util/status.h"

namespace sensord {

/// Which workload drives the sensors.
enum class WorkloadKind {
  kSyntheticMixture,  ///< 3-Gaussian mixture + uniform noise (Section 10)
  kEngine,            ///< surrogate engine trace (1-d)
  kEnvironmental,     ///< surrogate (pressure, dew-point) trace (2-d)
  kGappedBimodal,     ///< dense bands + rare gap readings (MDEF showcase)
};

/// Which estimator the detectors use.
enum class EstimatorMethod {
  kKernel,     ///< the paper's approach: chain sample + KDE, full simulation
  kHistogram,  ///< offline equi-depth histograms over exact pooled windows
};

/// Configuration of an accuracy experiment. Defaults are the paper's
/// Section 10.2 setup scaled to the 1-d synthetic workload.
struct AccuracyConfig {
  size_t num_leaves = 32;
  size_t fanout = 4;
  size_t dimensions = 1;
  WorkloadKind workload = WorkloadKind::kSyntheticMixture;
  EstimatorMethod method = EstimatorMethod::kKernel;

  size_t window_size = 10000;  ///< |W|
  size_t sample_size = 500;    ///< |R| (kernel) or |B| (histogram)
  double epsilon = 0.2;
  double sample_fraction = 0.5;  ///< f

  bool run_d3 = true;
  bool run_mgdd = true;
  DistanceOutlierConfig d3_outlier;  ///< default (45, 0.01)
  MdefConfig mdef;                   ///< default r=0.08, ar=0.01, k_sigma=3
  GlobalUpdateMode mgdd_update_mode = GlobalUpdateMode::kEveryChange;

  /// Rounds (one reading per sensor each) before scoring starts, and the
  /// number of scored rounds.
  size_t warmup_rounds = 10000;
  size_t measured_rounds = 2000;

  /// Histogram method: rounds between histogram rebuilds (the offline
  /// recomputation cadence).
  size_t histogram_rebuild_interval = 200;

  /// Score only every k-th reading (k >= 1). Sub-sampling keeps expensive
  /// configurations tractable without biasing precision/recall.
  size_t score_subsample = 1;

  /// Lossy-radio model: probability that any transmitted message is lost
  /// (kernel method only; 0 = reliable links, the paper's setting), set as
  /// each simulator's default LinkFault. Used by the robustness ablation.
  double link_loss = 0.0;

  /// Ack/retransmit transport under the loss above (kernel method only).
  /// transport.reliable = true makes the detectors see (almost) the
  /// loss-free message stream at a measurable retransmission cost — the
  /// knob the soak tests and the packet-loss ablation flip.
  TransportOptions transport;

  /// Staleness horizon (virtual seconds) after which D3 parents and MGDD
  /// leaves mark themselves degraded (see D3Options/MgddOptions). The
  /// default (+inf) disables degradation tracking, matching the paper's
  /// fault-free setting.
  double staleness_threshold = std::numeric_limits<double>::infinity();

  /// Bandwidth selection for all density models: false = the paper's
  /// Scott's rule; true = the robust IQR-tempered variant (see
  /// DensityModelConfig::robust_bandwidth).
  bool robust_bandwidth = false;

  uint64_t seed = 1;
};

/// Result of one accuracy run.
struct AccuracyResult {
  /// D3 precision/recall per hierarchy level; index 0 = level 1 (leaves).
  std::vector<PrecisionRecall> d3_by_level;
  /// MGDD precision/recall (leaf detection against the global model).
  PrecisionRecall mgdd;
  /// Total messages sent during the run (per algorithm's simulation).
  uint64_t d3_messages = 0;
  uint64_t mgdd_messages = 0;
};

/// Runs one accuracy experiment. Returns InvalidArgument on inconsistent
/// configuration (e.g. environmental workload with dimensions != 2).
StatusOr<AccuracyResult> RunAccuracyExperiment(const AccuracyConfig& config);

/// Averages `runs` accuracy runs with seeds seed, seed+1, ... (the paper
/// averages 12 runs per configuration).
StatusOr<AccuracyResult> RunAccuracyExperimentAveraged(
    const AccuracyConfig& config, size_t runs);

/// Configuration of the Figure 6 estimation-accuracy experiment.
struct EstimationAccuracyConfig {
  size_t window_size = 10240;
  size_t sample_size = 1024;
  double epsilon = 0.2;
  size_t fanout = 4;  ///< children feeding the parent sensor
  /// Parent sample fractions to evaluate (paper: 0.5 and 0.75).
  std::vector<double> parent_fractions = {0.5, 0.75};
  uint64_t phase_length = 4096;  ///< readings between distribution shifts
  uint64_t total_rounds = 12288;
  uint64_t eval_every = 256;    ///< readings between JS evaluations
  size_t js_grid_cells = 128;   ///< grid resolution of the JS computation
  uint64_t seed = 1;
};

/// One evaluation point of the Figure 6 series.
struct EstimationAccuracyPoint {
  uint64_t t = 0;          ///< reading index
  double leaf_js = 0.0;    ///< JS(leaf estimate, true distribution)
  std::vector<double> parent_js;  ///< one per configured parent fraction
};

std::vector<EstimationAccuracyPoint> RunEstimationAccuracy(
    const EstimationAccuracyConfig& config);

/// Configuration of the Figure 11 message-scaling experiment.
struct MessageScalingConfig {
  size_t num_leaves = 48;
  size_t fanout = 4;
  size_t dimensions = 1;
  size_t window_size = 10240;
  size_t sample_size = 1024;
  double epsilon = 0.2;
  double sample_fraction = 0.25;  ///< f (paper's Figure 11 value)
  double duration_seconds = 600.0;  ///< measured horizon, 1 reading/s/sensor
  uint64_t seed = 1;
};

/// Steady-state message rates of the three approaches, plus the radio
/// energy of the hottest node (the bottleneck that determines network
/// lifetime; see SimulatorOptions' energy model).
struct MessageScalingResult {
  size_t num_nodes = 0;  ///< total nodes in the hierarchy
  double d3_messages_per_second = 0.0;
  double mgdd_messages_per_second = 0.0;
  double centralized_messages_per_second = 0.0;
  double d3_max_node_energy_per_second = 0.0;
  double mgdd_max_node_energy_per_second = 0.0;
  double centralized_max_node_energy_per_second = 0.0;
};

StatusOr<MessageScalingResult> RunMessageScaling(
    const MessageScalingConfig& config);

}  // namespace sensord

#endif  // SENSORD_EVAL_EXPERIMENT_H_
