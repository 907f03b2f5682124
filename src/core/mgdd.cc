#include "core/mgdd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/detection_telemetry.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "stats/divergence.h"

#include "util/check.h"

namespace sensord {
namespace {

// Global updates are fanned out to every child; share one immutable payload
// across all copies of the message.
using SharedUpdate = std::shared_ptr<const GlobalModelUpdatePayload>;

struct MgddMetrics {
  obs::Counter* mdef_evaluations;     // leaf MDEF tests vs the global model
  obs::Counter* leaf_flags;           // MDEF outliers raised
  obs::Counter* leaf_propagations;    // f-gated sample values sent upward
  obs::Counter* internal_propagations;
  obs::Counter* updates_originated;   // root model pushes
  obs::Counter* updates_suppressed;   // kOnModelChange pushes skipped (JS)
  obs::Counter* updates_applied;      // replica updates applied at leaves
  obs::Counter* updates_malformed;    // dropped: shape or non-finite value
  obs::Histogram* update_slots;       // slot-diff size per originated push
};

const MgddMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const MgddMetrics m{
      registry.GetCounter("core.mgdd.leaf.mdef_evaluations"),
      registry.GetCounter("core.mgdd.leaf.flags"),
      registry.GetCounter("core.mgdd.leaf.propagations"),
      registry.GetCounter("core.mgdd.internal.propagations"),
      registry.GetCounter("core.mgdd.root.updates_originated"),
      registry.GetCounter("core.mgdd.root.updates_suppressed"),
      registry.GetCounter("core.mgdd.leaf.updates_applied"),
      registry.GetCounter("core.mgdd.leaf.updates_malformed"),
      registry.GetHistogram("core.mgdd.root.update_slots",
                            obs::SizeBoundaries())};
  return m;
}

// Snapshot payload versions (core/snapshot.h frame field) of the MGDD node
// checkpoints. Bump on layout change.
constexpr uint32_t kMgddLeafSnapshotVersion = 3;
constexpr uint32_t kMgddInternalSnapshotVersion = 4;

// Fills `payload` with every slot of `sample` (a full push).
void AppendEverySlot(const ChainSample& sample,
                     GlobalModelUpdatePayload* payload) {
  for (size_t i = 0; i < sample.sample_size(); ++i) {
    payload->updates.push_back(GlobalSlotUpdate{
        static_cast<uint32_t>(i), sample.ActiveElement(i).ToPoint()});
  }
}

// Sizes `table` to `rows` rows of d NaNs: slots that hold no value yet.
void ResetToNaNRows(size_t rows, size_t d, FlatPoints* table) {
  table->Reset(d);
  table->mutable_data()->assign(rows * d,
                                std::numeric_limits<double>::quiet_NaN());
}

// A slot value the replica can hold: d finite coordinates, which the
// canonical order can place.
bool ValidSlotValue(const Point& p, size_t d) {
  return p.size() == d && std::all_of(p.begin(), p.end(), [](double c) {
           return std::isfinite(c);
         });
}

// Sigmas the replica can build from: d finite spreads, none negative
// (Scott's rule rejects a negative one).
bool ValidSpreads(const std::vector<double>& spreads, size_t d) {
  return spreads.size() == d &&
         std::all_of(spreads.begin(), spreads.end(), [](double s) {
           return std::isfinite(s) && s >= 0.0;
         });
}

}  // namespace

MgddLeafNode::MgddLeafNode(const MgddOptions& options, Rng rng,
                           OutlierObserver* observer)
    : options_(options),
      boot_rng_(rng),
      local_model_(options.model, rng.Split()),
      rng_(rng),
      validator_(options.ingest),
      stuck_(options.ingest.stuck_run_threshold),
      observer_(observer) {
  // Register the counter up front so core.degraded_windows shows up (as 0)
  // in metric dumps of healthy runs too.
  (void)DegradedWindowsCounter();
}

void MgddLeafNode::OnReading(const Point& value) {
  // Ingest validation firewall, as in D3: drop poisoned readings before
  // the local model — and the upward sample stream — can absorb them.
  if (!AdmitReading(*this, &validator_, &stuck_, value)) return;

  // Figure 4, MGDD LeafProcess: update the local model, test the value
  // against the *global* estimator, propagate sample insertions upward.
  const bool inserted = local_model_.Observe(value);
  if (recovering_) MaybeFinishRecovery();

  if (HasGlobalModel() &&
      local_model_.total_seen() >= options_.min_observations) {
    // Detection keeps running on a stale replica — degraded, not dead.
    if (degraded() && !degraded_state_) {
      DegradedWindowsCounter()->Increment();
      degraded_state_ = true;
    }
    Metrics().mdef_evaluations->Increment();
    const MdefResult result =
        ComputeMdef(GlobalEstimator(), value, options_.mdef);
    if (result.is_outlier) {
      Metrics().leaf_flags->Increment();
      const SimTime now = sim()->Now();
      const uint64_t seq = local_model_.total_seen();
      // MGDD decides at the leaf, so the reading's causal chain is one span
      // deep; the global-model staleness and replica version in the
      // provenance tie it to the update chain that armed the detector.
      const uint64_t trace =
          obs::DeriveReadingTraceId(id(), seq, obs::kTraceDetectorMgdd);
      const uint64_t span = obs::DeriveSpanId(trace, id(), /*salt=*/level());
      obs::EmitCausalSpan("mgdd.leaf.flag", id(), now, trace, span,
                          /*parent_span=*/0);
      OutlierEvent event{DetectorKind::kMgdd, id(), level(), value, now, id(),
                         seq};
      event.degraded = degraded_state_;
      event.provenance = OutlierProvenance{
          result.mdef, options_.mdef.k_sigma * result.sigma_mdef,
          replica_version_, /*staleness_s=*/now - last_update_time_, trace};
      ReportDecision(event, span, /*latency_s=*/0.0, observer_);
    }
  }

  MaybePropagateSample(this, inserted, value, options_.sample_fraction, &rng_,
                       Metrics().leaf_propagations);
}

void MgddLeafNode::HandleMessage(const Message& msg) {
  if (msg.kind != kMsgGlobalModelUpdate) return;
  const auto& update = std::any_cast<const SharedUpdate&>(msg.payload);
  // An update the replica cannot hold — sigmas or slot values of the wrong
  // dimensionality, non-finite, or a negative sigma — could never build an
  // estimator (or would break the canonical order); drop it whole.
  const size_t d = options_.model.dimensions;
  bool well_formed = ValidSpreads(update->stddevs, d);
  for (const GlobalSlotUpdate& u : update->updates) {
    well_formed = well_formed && ValidSlotValue(u.value, d);
  }
  if (!well_formed) {
    Metrics().updates_malformed->Increment();
    return;
  }
  if (msg.trace_id != 0) {
    // Terminal hop of the update chain rooted at mgdd.originate_update.
    obs::EmitCausalSpan(
        "mgdd.apply_update", id(), sim()->Now(), msg.trace_id,
        obs::DeriveSpanId(msg.trace_id, id(), /*salt=*/level()),
        msg.trace_parent_span);
  }
  const size_t slots = options_.model.sample_size;
  if (global_slots_.empty()) ResetToNaNRows(slots, d, &global_slots_);
  // Re-sorting every slot once is cheaper than patching each one in.
  if (update->updates.size() >= slots) canonical_replica_.Reset(d);
  for (const GlobalSlotUpdate& u : update->updates) {
    if (u.slot >= slots) continue;  // malformed; ignore
    double* row = global_slots_.MutableRow(u.slot);
    if (std::isnan(row[0])) {
      // A slot turning valid grows the sample; the next rebuild sorts.
      ++valid_slots_;
      canonical_replica_.Reset(d);
    } else if (!canonical_replica_.empty()) {
      KernelDensityEstimator::ReplaceCanonicalRow(
          row, u.value.data(), cached_global_->primary_axis(),
          &canonical_replica_);
    }
    std::copy(u.value.begin(), u.value.end(), row);
  }
  global_stddevs_ = update->stddevs;
  ++updates_received_;
  ++replica_version_;
  last_update_time_ = sim()->Now();
  degraded_state_ = false;  // a fresh replica heals the degradation
  Metrics().updates_applied->Increment();
  if (recovering_) MaybeFinishRecovery();
}

std::vector<uint8_t> MgddLeafNode::SaveState() const {
  SnapshotWriter writer;
  local_model_.Serialize(&writer);
  writer.PutRng(rng_);
  // Global-model replica. Slot points are written even when invalid (they
  // are then empty), so slot count alone fixes the layout.
  writer.PutU32(static_cast<uint32_t>(global_slots_.size()));
  for (size_t i = 0; i < global_slots_.size(); ++i) {
    const bool valid = !std::isnan(global_slots_.At(i, 0));
    writer.PutBool(valid);
    writer.PutPoint(valid ? global_slots_.ToPoint(i) : Point{});
  }
  writer.PutDoubles(global_stddevs_);
  writer.PutU64(replica_version_);
  writer.PutU64(updates_received_);
  writer.PutDouble(last_update_time_);
  return std::move(writer).Finish(kMgddLeafSnapshotVersion);
}

bool MgddLeafNode::RestoreState(const std::vector<uint8_t>& bytes) {
  // The replica goes first, so even a failed restore leaves none that could
  // not build an estimator.
  ClearReplica();
  auto reader = SnapshotReader::Open(bytes, kMgddLeafSnapshotVersion);
  if (!reader.ok()) return false;
  SnapshotReader& r = reader.value();
  if (!local_model_.Restore(&r)) return false;
  rng_ = r.TakeRng();
  // The replica must fit this leaf: no slots (no update yet) or one per
  // root chain, each valid one holding d finite coordinates, and d finite,
  // non-negative sigmas alongside.
  const size_t d = options_.model.dimensions;
  const uint32_t slots = r.TakeU32();
  if (slots != 0 && slots != options_.model.sample_size) return false;
  FlatPoints table;
  size_t valid = 0;
  if (slots != 0) ResetToNaNRows(slots, d, &table);
  for (uint32_t i = 0; i < slots && r.ok(); ++i) {
    const bool slot_valid = r.TakeBool();
    const Point p = r.TakePoint();
    if (!slot_valid) continue;
    if (!ValidSlotValue(p, d)) return false;
    std::copy(p.begin(), p.end(), table.MutableRow(i));
    ++valid;
  }
  std::vector<double> stddevs = r.TakeDoubles();
  const uint64_t replica_version = r.TakeU64();
  const uint64_t updates_received = r.TakeU64();
  const double last_update_time = r.TakeDouble();
  if (!r.ok()) return false;
  if (slots == 0 ? !stddevs.empty() : !ValidSpreads(stddevs, d)) {
    return false;
  }
  global_slots_ = std::move(table);
  valid_slots_ = valid;
  global_stddevs_ = std::move(stddevs);
  replica_version_ = replica_version;
  updates_received_ = updates_received;
  last_update_time_ = last_update_time;
  return true;
}

void MgddLeafNode::ClearReplica() {
  global_slots_.Reset(0);
  valid_slots_ = 0;
  global_stddevs_.clear();
  updates_received_ = 0;
  replica_version_ = 0;
  last_update_time_ = 0.0;
  cached_global_.reset();
  cached_version_ = 0;
  canonical_replica_.Reset(0);
}

void MgddLeafNode::ResetVolatileState() {
  // Replay construction exactly (see D3LeafNode::ResetVolatileState).
  Rng boot = boot_rng_;
  local_model_ = DensityModel(options_.model, boot.Split());
  rng_ = boot;
  validator_ = IngestValidator(options_.ingest);
  stuck_ = StuckSensorDetector(options_.ingest.stuck_run_threshold);
  ClearReplica();
  degraded_state_ = false;
  recovering_ = false;
  restart_time_ = 0.0;
}

void MgddLeafNode::OnRestart(bool restored_from_checkpoint) {
  recovering_ = true;
  restart_time_ = sim()->Now();
  SendRejoinAnnounce(this, local_model_.total_seen(), restored_from_checkpoint,
                     /*recovered=*/false);
  MaybeFinishRecovery();
}

void MgddLeafNode::MaybeFinishRecovery() {
  if (!recovering_) return;
  // Capable again = warm local model AND a global replica to test against.
  if (!HasGlobalModel()) return;
  if (local_model_.total_seen() < options_.min_observations) return;
  recovering_ = false;
  RejoinTelemetry().ttr_s->Record(sim()->Now() - restart_time_);
  SendRejoinAnnounce(this, local_model_.total_seen(),
                     /*from_checkpoint=*/false, /*recovered=*/true);
}

bool MgddLeafNode::degraded() const {
  if (!HasGlobalModel()) return false;
  if (!std::isfinite(options_.staleness_threshold)) return false;
  return sim()->Now() - last_update_time_ > options_.staleness_threshold;
}

const KernelDensityEstimator& MgddLeafNode::GlobalEstimator() const {
  SENSORD_CHECK(HasGlobalModel());
  if (!cached_global_.has_value() || cached_version_ != replica_version_) {
    // DensityModel::Estimator()'s rebuild: from the patched canonical copy,
    // or, once it has been dropped, from the valid slots in slot order.
    KernelDensityEstimator::RebuildCanonical(
        &cached_global_, &canonical_replica_, global_stddevs_,
        [this](FlatPoints* rows) {
          const size_t d = global_slots_.dimensions();
          rows->Reset(d);
          rows->Reserve(valid_slots_);
          for (size_t i = 0; i < global_slots_.size(); ++i) {
            const double* row = global_slots_.Row(i);
            if (std::isnan(row[0])) continue;
            std::copy(row, row + d, rows->AppendRow());
          }
        });
    cached_version_ = replica_version_;
  }
  return *cached_global_;
}

MgddInternalNode::MgddInternalNode(const MgddOptions& options, Rng rng)
    : options_(options), boot_rng_(rng), model_(options.model, rng.Split()),
      rng_(rng) {}

void MgddInternalNode::HandleMessage(const Message& msg) {
  switch (msg.kind) {
    case kMsgSampleValue: {
      const auto& payload =
          *std::any_cast<const SharedSampleValue&>(msg.payload);
      HandleSampleValue(payload.value);
      break;
    }
    case kMsgGlobalModelUpdate: {
      // An update flowing down: relay to all children, continuing the
      // update's causal chain (this relay becomes the children's parent
      // span).
      const auto& update = std::any_cast<const SharedUpdate&>(msg.payload);
      obs::TraceContext ctx{msg.trace_id, msg.trace_parent_span};
      if (ctx.valid()) {
        const uint64_t span =
            obs::DeriveSpanId(ctx.trace_id, id(), /*salt=*/level());
        obs::EmitCausalSpan("mgdd.relay_update", id(), sim()->Now(),
                            ctx.trace_id, span, ctx.parent_span);
        ctx.parent_span = span;
      }
      BroadcastToChildren(*update, ctx);
      break;
    }
    case kMsgRejoinAnnounce:
      HandleRejoinAnnounce(msg);
      break;
    default:
      break;
  }
}

void MgddInternalNode::HandleRejoinAnnounce(const Message& msg) {
  const auto& ann = std::any_cast<const RejoinAnnouncePayload&>(msg.payload);
  // Recovered-notices are D3 parent bookkeeping; MGDD has nothing to clear.
  if (ann.recovered) return;
  if (!is_root()) {
    // Relay upward so the root hears about rejoins anywhere in its subtree.
    Message up = msg;
    up.from = id();
    up.to = parent();
    sim()->Send(std::move(up));
    return;
  }
  // The rejoined node (or the leaves below it) lost its replica; push a
  // full snapshot so every slot is refreshed. Broadcast rather than route:
  // replicas elsewhere just apply an idempotent refresh.
  BroadcastFullSnapshot();
}

void MgddInternalNode::HandleSampleValue(const Point& value) {
  const bool inserted = model_.Observe(value);
  if (is_root()) {
    // The root replicates its sample downward; any active-sample change —
    // an insertion or an expiry promotion — must reach the replicas.
    if (model_.sample().version() != last_sample_version_) {
      last_sample_version_ = model_.sample().version();
      MaybeOriginateUpdate();
    }
    return;
  }
  MaybePropagateSample(this, inserted, value, options_.sample_fraction, &rng_,
                       Metrics().internal_propagations);
}

void MgddInternalNode::MaybeOriginateUpdate() {
  const ChainSample& sample = model_.sample();
  GlobalModelUpdatePayload payload;
  payload.stddevs = model_.BandwidthSpreads();

  if (options_.update_mode == GlobalUpdateMode::kEveryChange) {
    // Diff the replicated slots against what was last broadcast, by value
    // (so -0.0 and 0.0 compare equal).
    const size_t d = options_.model.dimensions;
    if (last_broadcast_.size() != sample.sample_size()) {
      ResetToNaNRows(sample.sample_size(), d, &last_broadcast_);
    }
    for (size_t i = 0; i < sample.sample_size(); ++i) {
      const PointView now = sample.ActiveElement(i);
      double* last = last_broadcast_.MutableRow(i);
      if (std::equal(now.begin(), now.end(), last)) continue;
      payload.updates.push_back(
          GlobalSlotUpdate{static_cast<uint32_t>(i), now.ToPoint()});
      std::copy(now.begin(), now.end(), last);
    }
    if (payload.updates.empty()) return;
  } else {
    // kOnModelChange: push a full snapshot only if the model drifted.
    if (last_pushed_estimator_.has_value()) {
      auto js = JsDivergenceOnGrid(model_.Estimator(),
                                   *last_pushed_estimator_,
                                   options_.js_grid_cells);
      SENSORD_CHECK_OK(js.status());
      if (*js <= options_.push_js_threshold) {
        Metrics().updates_suppressed->Increment();
        return;
      }
    }
    AppendEverySlot(sample, &payload);
    last_pushed_estimator_ = model_.Estimator();
  }
  OriginateUpdate(&payload);
}

void MgddInternalNode::BroadcastFullSnapshot() {
  if (!model_.Ready()) return;  // nothing to push yet
  RejoinTelemetry().resyncs->Increment();
  GlobalModelUpdatePayload payload;
  payload.stddevs = model_.BandwidthSpreads();
  AppendEverySlot(model_.sample(), &payload);
  // Keep the diff baseline in step with what the replicas now hold.
  model_.sample().SnapshotTo(&last_broadcast_);
  OriginateUpdate(&payload);
}

void MgddInternalNode::OriginateUpdate(GlobalModelUpdatePayload* payload) {
  payload->version = ++update_version_;
  Metrics().updates_originated->Increment();
  Metrics().update_slots->Record(static_cast<double>(payload->updates.size()));
  // Root the update's causal chain: the trace id is a pure function of
  // (root, version), the originate span its root, and every child copy
  // carries that span as its parent.
  const uint64_t trace = obs::DeriveUpdateTraceId(id(), payload->version);
  const uint64_t span = obs::DeriveSpanId(trace, id(), /*salt=*/level());
  obs::EmitCausalSpan("mgdd.originate_update", id(), sim()->Now(), trace,
                      span, /*parent_span=*/0);
  BroadcastToChildren(*payload, obs::TraceContext{trace, span});
}

std::vector<uint8_t> MgddInternalNode::SaveState() const {
  SnapshotWriter writer;
  model_.Serialize(&writer);
  writer.PutRng(rng_);
  writer.PutU64(update_version_);
  return std::move(writer).Finish(kMgddInternalSnapshotVersion);
}

bool MgddInternalNode::RestoreState(const std::vector<uint8_t>& bytes) {
  auto reader = SnapshotReader::Open(bytes, kMgddInternalSnapshotVersion);
  if (!reader.ok()) return false;
  SnapshotReader& r = reader.value();
  if (!model_.Restore(&r)) return false;
  rng_ = r.TakeRng();
  update_version_ = r.TakeU64();
  if (!r.ok()) return false;
  // The checkpoint predates the crash, so the replicas below may hold newer
  // slots than this model does. An empty diff baseline (and no last-pushed
  // estimator) forces the next originated update to cover every slot.
  last_broadcast_.Reset(0);
  last_pushed_estimator_.reset();
  last_sample_version_ = model_.sample().version();
  return true;
}

void MgddInternalNode::ResetVolatileState() {
  Rng boot = boot_rng_;
  model_ = DensityModel(options_.model, boot.Split());
  rng_ = boot;
  last_broadcast_.Reset(0);
  last_pushed_estimator_.reset();
  update_version_ = 0;
  last_sample_version_ = 0;
}

void MgddInternalNode::OnRestart(bool restored_from_checkpoint) {
  if (is_root()) {
    // A freshly restored root re-pushes its sample so every replica is
    // known-consistent with the new incarnation's model.
    BroadcastFullSnapshot();
    return;
  }
  // Announce upward: the root answers any rejoin with a full snapshot,
  // which this node relays down — healing its own subtree's replicas.
  SendRejoinAnnounce(this, model_.total_seen(), restored_from_checkpoint,
                     /*recovered=*/false);
}

void MgddInternalNode::BroadcastToChildren(
    const GlobalModelUpdatePayload& payload, const obs::TraceContext& ctx) {
  if (children().empty()) return;
  const auto shared = std::make_shared<const GlobalModelUpdatePayload>(payload);
  const size_t size = payload.SizeNumbers(options_.model.dimensions);
  for (NodeId child : children()) {
    Message msg;
    msg.from = id();
    msg.to = child;
    msg.kind = kMsgGlobalModelUpdate;
    msg.size_numbers = size;
    msg.payload = SharedUpdate(shared);
    msg.trace_id = ctx.trace_id;
    msg.trace_parent_span = ctx.parent_span;
    sim()->Send(std::move(msg));
  }
}

}  // namespace sensord
