#include "core/d3.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/detection_telemetry.h"
#include "core/distance_outlier.h"
#include "core/protocol.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

#include "util/check.h"

namespace sensord {
namespace {

struct D3Metrics {
  obs::Counter* leaf_flags;            // values flagged at the leaves
  obs::Counter* leaf_propagations;     // f-gated sample values sent upward
  obs::Counter* parent_propagations;   // ditto, from intermediate leaders
  obs::Counter* parent_sample_arrivals;  // absorbed without an outlier test:
                                         // the re-checks Theorem 3 saves
  obs::Counter* parent_rechecks;       // child-flagged values re-evaluated
  obs::Counter* parent_confirms;       // re-checks that upheld the flag
};

const D3Metrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const D3Metrics m{
      registry.GetCounter("core.d3.leaf.flags"),
      registry.GetCounter("core.d3.leaf.propagations"),
      registry.GetCounter("core.d3.parent.propagations"),
      registry.GetCounter("core.d3.parent.sample_arrivals"),
      registry.GetCounter("core.d3.parent.rechecks"),
      registry.GetCounter("core.d3.parent.confirms")};
  return m;
}

// Snapshot payload versions (core/snapshot.h frame field) of the D3 node
// checkpoints. Bump on layout change.
constexpr uint32_t kD3LeafSnapshotVersion = 1;
constexpr uint32_t kD3ParentSnapshotVersion = 2;

// Both D3 node kinds checkpoint the same shape: the model plus the
// propagation rng, framed under the node kind's snapshot version.
std::vector<uint8_t> SaveModelAndRng(const DensityModel& model, const Rng& rng,
                                     uint32_t version) {
  SnapshotWriter writer;
  model.Serialize(&writer);
  writer.PutRng(rng);
  return std::move(writer).Finish(version);
}

bool RestoreModelAndRng(const std::vector<uint8_t>& bytes, uint32_t version,
                        DensityModel* model, Rng* rng) {
  auto reader = SnapshotReader::Open(bytes, version);
  if (!reader.ok()) return false;
  if (!model->Restore(&reader.value())) return false;
  *rng = reader.value().TakeRng();
  return reader.value().ok();
}

}  // namespace

DensityModelConfig LeaderModelConfigFor(const DensityModelConfig& leaf,
                                        size_t num_children,
                                        size_t descendant_leaves,
                                        double sample_fraction) {
  SENSORD_CHECK_GE(num_children, 1u);
  SENSORD_CHECK_GE(descendant_leaves, num_children);
  DensityModelConfig cfg = leaf;
  const double arrivals = static_cast<double>(num_children) *
                          sample_fraction *
                          static_cast<double>(leaf.sample_size);
  cfg.window_size = std::max<size_t>(
      leaf.sample_size, static_cast<size_t>(std::llround(arrivals)));
  cfg.logical_window_count = static_cast<double>(leaf.window_size) *
                             static_cast<double>(descendant_leaves);
  return cfg;
}

DensityModelConfig LeaderModelConfig(const DensityModelConfig& leaf,
                                     size_t fanout, double sample_fraction,
                                     int level) {
  SENSORD_CHECK_GE(level, 2);
  SENSORD_CHECK_GE(fanout, 2u);
  const size_t descendant_leaves = static_cast<size_t>(
      std::llround(std::pow(static_cast<double>(fanout), level - 1)));
  return LeaderModelConfigFor(leaf, fanout, descendant_leaves,
                              sample_fraction);
}

D3LeafNode::D3LeafNode(const D3Options& options, Rng rng,
                       OutlierObserver* observer)
    : options_(options), boot_rng_(rng), model_(options.model, rng.Split()),
      rng_(rng), validator_(options.ingest),
      stuck_(options.ingest.stuck_run_threshold), observer_(observer) {}

void D3LeafNode::OnReading(const Point& value) {
  // Ingest validation firewall: a NaN from a dying transducer would poison
  // the chain sample for a full window, so bad values are dropped before
  // the model ever sees them.
  if (!AdmitReading(*this, &validator_, &stuck_, value)) return;

  // Figure 4, LeafProcess: update the model first, then test the value.
  const bool inserted = model_.Observe(value);
  if (recovering_) MaybeFinishRecovery();
  MaybePropagateSample(this, inserted, value, options_.sample_fraction, &rng_,
                       Metrics().leaf_propagations);

  if (model_.total_seen() < options_.min_observations) return;
  const double estimate = EstimateNeighborCount(
      model_.Estimator(), model_.WindowCount(), value, options_.outlier);
  if (estimate >= options_.outlier.neighbor_threshold) return;  // not outlying
  Metrics().leaf_flags->Increment();
  const SimTime now = sim()->Now();
  const uint64_t seq = model_.total_seen();
  // Root of this reading's causal chain (DESIGN.md §11): the trace id is a
  // pure function of (leaf, seq), so every retransmitted or re-derived hop
  // joins the same chain and same-seed runs emit identical ids.
  const uint64_t trace =
      obs::DeriveReadingTraceId(id(), seq, obs::kTraceDetectorD3);
  const uint64_t span = obs::DeriveSpanId(trace, id(), /*salt=*/level());
  obs::EmitCausalSpan("d3.leaf.flag", id(), now, trace, span,
                      /*parent_span=*/0);
  OutlierEvent event{DetectorKind::kD3, id(), level(), value, now, id(), seq};
  event.provenance =
      OutlierProvenance{estimate, options_.outlier.neighbor_threshold, seq,
                        /*staleness_s=*/0.0, trace};
  ReportDecision(event, span, /*latency_s=*/0.0, observer_);
  SendOutlierReport(this, OutlierReportPayload{value, level(), id(), seq, now},
                    trace, span);
}

void D3LeafNode::HandleMessage(const Message& msg) {
  // Leaves receive nothing in D3 except a post-restart model resync from
  // the parent; tolerate stray traffic.
  if (msg.kind != kMsgRejoinResync) return;
  if (!recovering_ || warm_started_) return;  // late/duplicate resync
  const auto& resync = std::any_cast<const RejoinResyncPayload&>(msg.payload);
  warm_started_ = true;
  for (const Point& p : resync.sample) model_.Observe(p);
  MaybeFinishRecovery();
}

std::vector<uint8_t> D3LeafNode::SaveState() const {
  return SaveModelAndRng(model_, rng_, kD3LeafSnapshotVersion);
}

bool D3LeafNode::RestoreState(const std::vector<uint8_t>& bytes) {
  return RestoreModelAndRng(bytes, kD3LeafSnapshotVersion, &model_, &rng_);
}

void D3LeafNode::ResetVolatileState() {
  // Replay construction exactly: split off the model rng from a copy of the
  // boot rng so the cold-started node draws the same random stream as a
  // freshly built one (bit-identical replay depends on this).
  Rng boot = boot_rng_;
  model_ = DensityModel(options_.model, boot.Split());
  rng_ = boot;
  validator_ = IngestValidator(options_.ingest);
  stuck_ = StuckSensorDetector(options_.ingest.stuck_run_threshold);
  recovering_ = false;
  warm_started_ = false;
  restart_time_ = 0.0;
}

void D3LeafNode::OnRestart(bool restored_from_checkpoint) {
  recovering_ = true;
  warm_started_ = false;
  restart_time_ = sim()->Now();
  SendRejoinAnnounce(this, model_.total_seen(), restored_from_checkpoint,
                     /*recovered=*/false);
  // A checkpoint restore may come back already capable.
  MaybeFinishRecovery();
}

void D3LeafNode::MaybeFinishRecovery() {
  if (!recovering_) return;
  if (model_.total_seen() < options_.min_observations) return;
  recovering_ = false;
  RejoinTelemetry().ttr_s->Record(sim()->Now() - restart_time_);
  SendRejoinAnnounce(this, model_.total_seen(), /*from_checkpoint=*/false,
                     /*recovered=*/true);
}

D3ParentNode::D3ParentNode(const D3Options& options, Rng rng,
                           OutlierObserver* observer)
    : options_(options), boot_rng_(rng), model_(options.model, rng.Split()),
      rng_(rng), observer_(observer) {
  // Register the counter up front so core.degraded_windows shows up (as 0)
  // in metric dumps of healthy runs too.
  (void)DegradedWindowsCounter();
}

void D3ParentNode::OnStart() {
  // Children start "fresh" at wiring time; silence is measured from here.
  for (NodeId child : children()) last_heard_[child] = sim()->Now();
}

bool D3ParentNode::ComputeDegraded(SimTime now) const {
  // A child mid-recovery is a hole in the model regardless of how chatty
  // it is, so it degrades the parent just like a silent one.
  if (!recovering_children_.empty()) return true;
  if (!std::isfinite(options_.staleness_threshold)) return false;
  for (const auto& [child, heard] : last_heard_) {
    if (now - heard > options_.staleness_threshold) return true;
  }
  return false;
}

void D3ParentNode::SettleDegraded(SimTime now) {
  const bool now_degraded = ComputeDegraded(now);
  if (now_degraded && !degraded_state_) DegradedWindowsCounter()->Increment();
  degraded_state_ = now_degraded;
}

void D3ParentNode::HandleMessage(const Message& msg) {
  // Degradation bookkeeping: staleness is only observable when an event
  // fires, so each arriving message first settles whether a silent child
  // pushed the node into the degraded state since the last one.
  const SimTime now = sim()->Now();
  SettleDegraded(now);
  const auto heard = last_heard_.find(msg.from);
  if (heard != last_heard_.end()) heard->second = now;
  degraded_state_ = ComputeDegraded(now);

  switch (msg.kind) {
    case kMsgSampleValue: {
      const auto& payload =
          *std::any_cast<const SharedSampleValue&>(msg.payload);
      HandleSampleValue(payload.value);
      break;
    }
    case kMsgOutlierReport: {
      const auto& payload =
          std::any_cast<const OutlierReportPayload&>(msg.payload);
      HandleOutlierReport(msg, payload);
      break;
    }
    case kMsgRejoinAnnounce: {
      const auto& payload =
          std::any_cast<const RejoinAnnouncePayload&>(msg.payload);
      HandleRejoinAnnounce(msg.from, payload);
      // The announce itself can open or close the recovering-children
      // degradation window.
      SettleDegraded(now);
      break;
    }
    case kMsgRejoinResync: {
      const auto& payload =
          std::any_cast<const RejoinResyncPayload&>(msg.payload);
      HandleRejoinResync(payload);
      break;
    }
    default:
      break;  // not ours
  }
}

void D3ParentNode::HandleRejoinAnnounce(NodeId child,
                                        const RejoinAnnouncePayload& ann) {
  (void)ann.incarnation;  // dedup is the transport's job; this is telemetry
  if (ann.recovered) {
    recovering_children_.erase(child);
    return;
  }
  if (ann.restored_seen < options_.min_observations) {
    recovering_children_.insert(child);
  }
  // Resync only a cold-started child: one restored from its own checkpoint
  // already holds a model at least as fresh as anything we could send.
  if (ann.from_checkpoint || !model_.Ready()) return;
  RejoinTelemetry().resyncs->Increment();
  RejoinResyncPayload resync;
  resync.sample = model_.sample().Snapshot();
  resync.spreads = model_.BandwidthSpreads();
  resync.parent_seen = model_.total_seen();
  Message msg;
  msg.from = id();
  msg.to = child;
  msg.kind = kMsgRejoinResync;
  msg.size_numbers = resync.SizeNumbers(options_.model.dimensions);
  msg.payload = std::move(resync);
  sim()->Send(std::move(msg));
}

void D3ParentNode::HandleRejoinResync(const RejoinResyncPayload& resync) {
  if (!recovering_ || warm_started_) return;  // late/duplicate resync
  warm_started_ = true;
  // Absorbed like ordinary sample arrivals, but never re-propagated upward:
  // the grandparent already holds this data from before the crash.
  for (const Point& p : resync.sample) model_.Observe(p);
  MaybeFinishRecovery();
}

std::vector<uint8_t> D3ParentNode::SaveState() const {
  return SaveModelAndRng(model_, rng_, kD3ParentSnapshotVersion);
}

bool D3ParentNode::RestoreState(const std::vector<uint8_t>& bytes) {
  return RestoreModelAndRng(bytes, kD3ParentSnapshotVersion, &model_, &rng_);
}

void D3ParentNode::ResetVolatileState() {
  Rng boot = boot_rng_;
  model_ = DensityModel(options_.model, boot.Split());
  rng_ = boot;
  last_heard_.clear();
  recovering_children_.clear();
  degraded_state_ = false;
  recovering_ = false;
  warm_started_ = false;
  restart_time_ = 0.0;
}

void D3ParentNode::OnRestart(bool restored_from_checkpoint) {
  // The silence clocks restart from the moment of rejoin, exactly as they
  // do at start: a child is not "stale" for time the parent slept through.
  OnStart();
  recovering_ = true;
  warm_started_ = false;
  restart_time_ = sim()->Now();
  SendRejoinAnnounce(this, model_.total_seen(), restored_from_checkpoint,
                     /*recovered=*/false);
  MaybeFinishRecovery();
}

void D3ParentNode::MaybeFinishRecovery() {
  if (!recovering_) return;
  if (model_.total_seen() < options_.min_observations) return;
  recovering_ = false;
  SendRejoinAnnounce(this, model_.total_seen(), /*from_checkpoint=*/false,
                     /*recovered=*/true);
}

void D3ParentNode::HandleSampleValue(const Point& value) {
  // Figure 4, ParentProcess lines 28-30. The value feeds the model but is
  // never outlier-tested here — exactly the work Theorem 3 saves a parent.
  Metrics().parent_sample_arrivals->Increment();
  const bool inserted = model_.Observe(value);
  if (recovering_) MaybeFinishRecovery();
  MaybePropagateSample(this, inserted, value, options_.sample_fraction, &rng_,
                       Metrics().parent_propagations);
}

void D3ParentNode::HandleOutlierReport(const Message& incoming,
                                       const OutlierReportPayload& report) {
  // Figure 4, ParentProcess lines 23-27: re-check the child's outlier
  // against this level's model; escalate only if it is still an outlier.
  if (!model_.Ready() || model_.total_seen() < options_.min_observations) {
    return;
  }
  Metrics().parent_rechecks->Increment();
  const SimTime now = sim()->Now();
  // Continue the reading's causal chain. A report from a pre-tracing sender
  // carries no context; re-derive the trace from the payload provenance so
  // the chain still joins (the ids are pure functions of (leaf, seq)).
  const uint64_t trace =
      incoming.trace_id != 0
          ? incoming.trace_id
          : obs::DeriveReadingTraceId(report.source_leaf,
                                       report.source_seq, obs::kTraceDetectorD3);
  const uint64_t span = obs::DeriveSpanId(trace, id(), /*salt=*/level());
  obs::EmitCausalSpan("d3.parent.recheck", id(), now, trace, span,
                      incoming.trace_parent_span);
  const double estimate = EstimateNeighborCount(
      model_.Estimator(), model_.WindowCount(), report.value, options_.outlier);
  if (estimate >= options_.outlier.neighbor_threshold) return;  // refuted
  Metrics().parent_confirms->Increment();
  const double latency = report.ingest_time > 0.0 && now >= report.ingest_time
                             ? now - report.ingest_time
                             : 0.0;
  // The stalest child's silence: how out-of-date the worst slice of this
  // node's model was when it confirmed the flag.
  double staleness = 0.0;
  for (const auto& [child, heard] : last_heard_) {
    staleness = std::max(staleness, now - heard);
  }
  OutlierEvent event{DetectorKind::kD3, id(), level(), report.value, now,
                     report.source_leaf, report.source_seq};
  event.degraded = degraded_state_;
  event.provenance =
      OutlierProvenance{estimate, options_.outlier.neighbor_threshold,
                        model_.total_seen(), staleness, trace};
  ReportDecision(event, span, latency, observer_);
  SendOutlierReport(this, report, trace, span);
}

}  // namespace sensord
