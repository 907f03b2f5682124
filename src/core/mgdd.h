// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// MGDD — Multi Granular Deviation Detection (Section 8, Figure 4).
//
// MDEF-based outliers are non-decomposable (the paper's observation that
// Theorem 3 does not hold for them), so detection happens only at the leaf
// sensors — but against a *global* density model describing the whole
// region. The global model lives at the root: sample values propagate up
// with probability f per hop (as in D3), and whenever the root's sample
// changes, the change is pushed back down through the intermediate leaders
// to every leaf ("updates of R^g and sigma^g to all the children").
//
// Two update policies (Section 8.1):
//  * kEveryChange   — each root sample insertion is broadcast immediately;
//    the per-observation message cost is the (f*l)^n of the paper.
//  * kOnModelChange — the root pushes a full snapshot only when the JS
//    divergence between the current model and the last-pushed model exceeds
//    a threshold; leaves see fewer updates when the distribution is
//    stationary (the paper's communication optimization).
//
// Replica consistency: the root replicates its sample as a fixed array of
// |R^g| slots (slot i = chain i's active element) and broadcasts slot
// diffs, so every leaf holds an exact copy of the root's current sample.
// A leaf keeps the slots in a flat table plus a copy of the valid rows in
// its cached estimator's canonical order, which each slot diff patches in
// place (the old value departs, the new one arrives; DESIGN.md §13): a
// replica rebuild then checks that order in O(|R^g|·d) instead of copying
// and sorting every slot. An update that makes a slot valid (warm-up) or
// carries every slot (a resync, kOnModelChange) drops the copy, and the
// next rebuild sorts once, as does the first rebuild after a restore.
// Updates whose sigmas or slot values are not finite and well-shaped are
// dropped whole, so the replica always holds an order-able sample.

#ifndef SENSORD_CORE_MGDD_H_
#define SENSORD_CORE_MGDD_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/density_model.h"
#include "core/faulty_sensor.h"
#include "core/mdef.h"
#include "core/outlier_observer.h"
#include "core/protocol.h"
#include "data/validate.h"
#include "obs/trace_context.h"
#include "net/network.h"
#include "net/node.h"
#include "stats/kde.h"
#include "util/flat_points.h"
#include "util/rng.h"

namespace sensord {

/// When the root pushes global-model updates downward.
enum class GlobalUpdateMode {
  kEveryChange,   ///< push slot diffs on every root sample change
  kOnModelChange  ///< push a full snapshot when JS(current, last) > threshold
};

/// Parameters of an MGDD deployment.
struct MgddOptions {
  /// Local model at each node (leaves summarize their own stream; leaders —
  /// including the root — summarize the propagated sample stream). The
  /// root's model is the global model.
  DensityModelConfig model;

  /// The MDEF criterion evaluated at the leaves.
  MdefConfig mdef;

  /// Upward sample propagation probability f.
  double sample_fraction = 0.5;

  GlobalUpdateMode update_mode = GlobalUpdateMode::kEveryChange;

  /// kOnModelChange: push when JS divergence (bits) exceeds this.
  double push_js_threshold = 0.02;

  /// kOnModelChange: grid resolution for the JS computation.
  size_t js_grid_cells = 64;

  /// Observations a leaf must absorb before flagging values.
  uint64_t min_observations = 1000;

  /// Graceful degradation: a leaf whose global-model replica has not been
  /// refreshed for longer than this many simulated seconds keeps detecting
  /// but marks itself (and its events) degraded — MDEF against a stale
  /// global model is best-effort. Crossing into the degraded state bumps
  /// `core.degraded_windows`. Infinity disables the check.
  double staleness_threshold = std::numeric_limits<double>::infinity();

  /// Ingest validation firewall applied to every leaf reading before the
  /// local model sees it (data/validate.h). Defaults accept all finite
  /// readings, so clean streams are unaffected.
  IngestPolicy ingest;
};

/// A leaf sensor running MGDD's LeafProcess: maintains its local model,
/// holds a replica of the global sample, and evaluates the MDEF criterion
/// for every arriving value against the global model.
class MgddLeafNode : public Node {
 public:
  MgddLeafNode(const MgddOptions& options, Rng rng, OutlierObserver* observer);

  void OnReading(const Point& value) override;
  void HandleMessage(const Message& msg) override;

  // Crash recovery (DESIGN.md §10): the checkpoint holds the local model,
  // the propagation rng, and the global-model replica; a restarted leaf
  // announces its rejoin upward so the root refreshes the replica.
  std::vector<uint8_t> SaveState() const override;
  bool RestoreState(const std::vector<uint8_t>& bytes) override;
  void ResetVolatileState() override;
  void OnRestart(bool restored_from_checkpoint) override;

  const DensityModel& local_model() const { return local_model_; }

  /// True once the replica holds at least one valid slot.
  bool HasGlobalModel() const { return valid_slots_ > 0; }

  /// The replica's current estimator. Pre: HasGlobalModel().
  const KernelDensityEstimator& GlobalEstimator() const;

  /// The replica's valid slots in the cached estimator's canonical order,
  /// as patched by each slot diff; empty while not maintained (before the
  /// first GlobalEstimator() call, after an update that made a slot valid
  /// or carried every slot, and after a restore or reset).
  const FlatPoints& canonical_replica() const { return canonical_replica_; }

  /// Number of global updates applied (for experiments).
  uint64_t global_updates_received() const { return updates_received_; }

  /// True if the replica is older than options.staleness_threshold as of
  /// the current simulation time (always false before the first update —
  /// there is no replica to be stale yet; MDEF is simply off).
  bool degraded() const;

 private:
  // Closes the recovery window once the leaf is capable again.
  void MaybeFinishRecovery();
  // Drops the replica, its estimator and the canonical copy.
  void ClearReplica();

  MgddOptions options_;
  Rng boot_rng_;  // construction-time rng, replayed by ResetVolatileState
  DensityModel local_model_;
  Rng rng_;
  IngestValidator validator_;
  StuckSensorDetector stuck_;
  OutlierObserver* observer_;

  bool recovering_ = false;
  SimTime restart_time_ = 0.0;

  // Replica of the root's sample and sigmas: one row per slot, empty until
  // the first update; a slot no update has filled yet is a row of NaNs
  // (updates carry finite values only).
  FlatPoints global_slots_;
  size_t valid_slots_ = 0;  // rows of global_slots_ that hold a value
  std::vector<double> global_stddevs_;
  uint64_t updates_received_ = 0;
  uint64_t replica_version_ = 0;
  SimTime last_update_time_ = 0.0;
  bool degraded_state_ = false;

  mutable std::optional<KernelDensityEstimator> cached_global_;
  mutable uint64_t cached_version_ = 0;
  // The valid slot rows in cached_global_'s canonical order, or empty while
  // not maintained: GlobalEstimator() starts it, HandleMessage() patches it
  // per slot diff, and a warm-up slot, a full-slot update or a restore
  // drops it (see the header comment).
  mutable FlatPoints canonical_replica_;
};

/// A leader node running MGDD's BlackProcess: relays sample values upward
/// (gated on insertion into its own sample, probability f), relays global
/// updates downward, and — if it is the root — originates global updates.
class MgddInternalNode : public Node {
 public:
  MgddInternalNode(const MgddOptions& options, Rng rng);

  void HandleMessage(const Message& msg) override;

  // Crash recovery: the checkpoint is the model, the rng, and the broadcast
  // version counter. A rejoin announce arriving from below makes the root
  // re-broadcast a full snapshot so the rejoined subtree's replicas heal.
  std::vector<uint8_t> SaveState() const override;
  bool RestoreState(const std::vector<uint8_t>& bytes) override;
  void ResetVolatileState() override;
  void OnRestart(bool restored_from_checkpoint) override;

  const DensityModel& model() const { return model_; }

 private:
  void HandleSampleValue(const Point& value);
  void HandleRejoinAnnounce(const Message& msg);
  void MaybeOriginateUpdate();
  // Pushes every slot of the current sample to the children (root only).
  void BroadcastFullSnapshot();
  // Stamps the next version on `payload`, counts it, roots its causal
  // chain (the originate span) and broadcasts it to the children.
  void OriginateUpdate(GlobalModelUpdatePayload* payload);
  void BroadcastToChildren(const GlobalModelUpdatePayload& payload,
                           const obs::TraceContext& ctx);

  MgddOptions options_;
  Rng boot_rng_;  // construction-time rng, replayed by ResetVolatileState
  DensityModel model_;
  Rng rng_;

  // Root bookkeeping: the sample as last broadcast, one row per slot; empty
  // before the first broadcast and after a restore, and a row of NaNs for a
  // slot not broadcast since (NaN equals nothing, so the next diff sends it).
  FlatPoints last_broadcast_;
  std::optional<KernelDensityEstimator> last_pushed_estimator_;
  uint64_t update_version_ = 0;
  uint64_t last_sample_version_ = 0;
};

}  // namespace sensord

#endif  // SENSORD_CORE_MGDD_H_
