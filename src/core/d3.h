// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// D3 — Distributed Deviation Detection (Section 7, Figure 4).
//
// Leaves maintain a density model of their own sliding window, flag each
// arriving value whose estimated neighbourhood count N(p, r) falls below the
// threshold, and escalate flagged values to their leader. Leaders maintain a
// density model over the *propagated sample* of their subtree and re-check
// only the values their children flagged — justified by the paper's
// Theorem 3 (a parent's outlier set is contained in the union of its
// children's outlier sets), which is what makes D3 cheap: parents never see
// non-outlying raw data.
//
// Sample propagation (Section 5.1): a value that enters a node's sample is
// forwarded to the parent with probability f; the parent treats arriving
// values as its own input stream, inserts them into its sample, and forwards
// its own insertions upward with probability f again.

#ifndef SENSORD_CORE_D3_H_
#define SENSORD_CORE_D3_H_

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "core/config.h"
#include "core/density_model.h"
#include "core/faulty_sensor.h"
#include "core/outlier_observer.h"
#include "core/protocol.h"
#include "data/validate.h"
#include "net/network.h"
#include "net/node.h"
#include "util/rng.h"

namespace sensord {

/// Parameters of a D3 deployment.
struct D3Options {
  /// Leaf model parameters (the paper's |W|, |R|, epsilon).
  DensityModelConfig model;

  /// The (D, r) criterion.
  DistanceOutlierConfig outlier;

  /// Sample propagation probability f (paper default 0.5).
  double sample_fraction = 0.5;

  /// Observations a node must absorb before it starts flagging values —
  /// fresh models produce meaningless neighbourhood counts. Experiments use
  /// one full window.
  uint64_t min_observations = 1000;

  /// Graceful degradation: a parent that has heard nothing from some child
  /// for longer than this many simulated seconds considers its model stale
  /// and marks itself (and the events it still emits) degraded. Crossing
  /// into the degraded state bumps `core.degraded_windows`. Infinity
  /// disables the check (the paper assumes reliable links and live nodes).
  double staleness_threshold = std::numeric_limits<double>::infinity();

  /// Ingest validation firewall applied to every leaf reading before the
  /// model sees it (data/validate.h). The default policy accepts all finite
  /// readings and never quarantines, so clean streams are unaffected.
  IngestPolicy ingest;
};

/// Computes the DensityModelConfig for a leader node with `num_children`
/// direct children and `descendant_leaves` leaf sensors in its subtree,
/// under leaf config `leaf` and propagation probability f.
///
/// Arrivals: over one logical window, each child inserts about |R| values
/// into its own sample and forwards each with probability f, so a leader
/// sees about num_children * f * |R| arrivals per window — that is its
/// arrival-count window. Population: the leader answers for the union of
/// the leaf windows below it, |W| * descendant_leaves.
DensityModelConfig LeaderModelConfigFor(const DensityModelConfig& leaf,
                                        size_t num_children,
                                        size_t descendant_leaves,
                                        double sample_fraction);

/// Convenience for a perfectly balanced tree: a leader at 1-based level
/// `level` (level >= 2) with `fanout` children per node has fanout direct
/// children and fanout^(level-1) descendant leaves.
DensityModelConfig LeaderModelConfig(const DensityModelConfig& leaf,
                                     size_t fanout, double sample_fraction,
                                     int level);

/// A leaf sensor running D3's LeafProcess.
class D3LeafNode : public Node {
 public:
  /// `observer` may be null (events are then only escalated, not reported
  /// locally); it must outlive the node.
  D3LeafNode(const D3Options& options, Rng rng, OutlierObserver* observer);

  void OnReading(const Point& value) override;
  void HandleMessage(const Message& msg) override;

  // Crash recovery (DESIGN.md §10): the checkpoint is the model plus the
  // propagation rng; ResetVolatileState rewinds both to their boot state.
  std::vector<uint8_t> SaveState() const override;
  bool RestoreState(const std::vector<uint8_t>& bytes) override;
  void ResetVolatileState() override;
  void OnRestart(bool restored_from_checkpoint) override;

  const DensityModel& model() const { return model_; }

 private:
  // Closes the recovery window once the model is capable again.
  void MaybeFinishRecovery();

  D3Options options_;
  Rng boot_rng_;  // construction-time rng, replayed by ResetVolatileState
  DensityModel model_;
  Rng rng_;
  IngestValidator validator_;
  StuckSensorDetector stuck_;
  OutlierObserver* observer_;

  bool recovering_ = false;
  bool warm_started_ = false;  // consumed a rejoin resync this incarnation
  SimTime restart_time_ = 0.0;
};

/// A leader node running D3's ParentProcess at any tier above the leaves.
class D3ParentNode : public Node {
 public:
  /// `options.model` should come from LeaderModelConfig for this node's
  /// level. `observer` may be null; it must outlive the node.
  D3ParentNode(const D3Options& options, Rng rng, OutlierObserver* observer);

  void OnStart() override;
  void HandleMessage(const Message& msg) override;

  // Crash recovery: same checkpoint shape as the leaf (model + rng); the
  // silence clocks and recovering-children set are rebuilt, not restored.
  std::vector<uint8_t> SaveState() const override;
  bool RestoreState(const std::vector<uint8_t>& bytes) override;
  void ResetVolatileState() override;
  void OnRestart(bool restored_from_checkpoint) override;

  const DensityModel& model() const { return model_; }

 private:
  void HandleSampleValue(const Point& value);
  void HandleOutlierReport(const Message& incoming,
                           const OutlierReportPayload& report);
  void HandleRejoinAnnounce(NodeId child, const RejoinAnnouncePayload& ann);
  void HandleRejoinResync(const RejoinResyncPayload& resync);
  // True if at `now` some child has been silent past the staleness
  // threshold, or is mid-recovery from an amnesia restart (announced
  // rejoin, not yet reported capable).
  bool ComputeDegraded(SimTime now) const;
  // Re-evaluates the degraded state at `now`, counting a rising edge into
  // core.degraded_windows.
  void SettleDegraded(SimTime now);
  void MaybeFinishRecovery();

  D3Options options_;
  Rng boot_rng_;  // construction-time rng, replayed by ResetVolatileState
  DensityModel model_;
  Rng rng_;
  OutlierObserver* observer_;

  // Last time each direct child was heard from (any message kind).
  std::map<NodeId, SimTime> last_heard_;
  // Children that announced an amnesia rejoin and have not yet reported
  // recovery; the node stays degraded while this is non-empty.
  std::set<NodeId> recovering_children_;
  bool degraded_state_ = false;

  bool recovering_ = false;
  bool warm_started_ = false;
  SimTime restart_time_ = 0.0;
};

}  // namespace sensord

#endif  // SENSORD_CORE_D3_H_
