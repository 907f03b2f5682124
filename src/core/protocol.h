// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Wire protocol of the D3 and MGDD algorithms: message kinds, payloads, and
// the protocol steps every detector node shares. Payload sizes
// (Message::size_numbers) follow the paper's accounting — the numeric values
// a real radio would carry, at 2 bytes per number on the assumed 16-bit
// architecture.

#ifndef SENSORD_CORE_PROTOCOL_H_
#define SENSORD_CORE_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/faulty_sensor.h"
#include "core/outlier_observer.h"
#include "data/validate.h"
#include "net/message.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {

/// Message kinds used by the shipped algorithms (values < 100 are reserved;
/// see net/message.h).
enum ProtocolKind : MessageKind {
  /// A value that entered a node's sample, propagated upward w.p. f
  /// (D3 lines 14-15 / 30, MGDD lines 13-14 / 20-21).
  kMsgSampleValue = 1,
  /// A value a node flagged as an outlier, escalated to its parent
  /// (D3 lines 19, 27).
  kMsgOutlierReport = 2,
  /// A global-model update flowing down the hierarchy (MGDD lines 22-23).
  kMsgGlobalModelUpdate = 3,
  /// A raw reading shipped upward by the centralized baseline.
  kMsgRawReading = 4,
  /// An aggregate query disseminated down the tree (Section 9 / TAG-style
  /// in-network query processing; see core/query_processing.h).
  kMsgQueryRequest = 5,
  /// A partial aggregate flowing back up toward the query's origin.
  kMsgQueryResponse = 6,
  /// A restarted node announcing its new incarnation to its parent, and —
  /// once its model is back to capability — reporting recovery complete
  /// (DESIGN.md §10, rejoin protocol).
  kMsgRejoinAnnounce = 7,
  /// The parent's answer to a rejoin: a summary of its model (sample
  /// snapshot + bandwidth spreads) the child warm-starts from.
  kMsgRejoinResync = 8,
};

/// Payload of kMsgSampleValue and kMsgRawReading.
struct SampleValuePayload {
  Point value;
};

/// How SampleValuePayload travels inside Message::payload. Sample messages
/// are copied at every stage of delivery — the transport retains a
/// retransmit copy, each per-hop delivery closure captures the message, and
/// relays forward it — while the payload itself is immutable once sent, so
/// it is carried by shared_ptr and every Message copy stays O(1) regardless
/// of dimensionality.
using SharedSampleValue = std::shared_ptr<const SampleValuePayload>;

/// Wraps a point for sending as kMsgSampleValue / kMsgRawReading.
inline SharedSampleValue MakeSampleValue(Point value) {
  return std::make_shared<const SampleValuePayload>(
      SampleValuePayload{std::move(value)});
}

/// Payload of kMsgOutlierReport.
struct OutlierReportPayload {
  Point value;
  /// Hierarchy level at which the value was first flagged.
  int origin_level = 1;
  /// Provenance of the reading: the leaf that sensed it and that leaf's
  /// reading counter — a source timestamp, as real deployments attach. Lets
  /// upper levels (and the evaluation harness) identify the observation.
  NodeId source_leaf = kNoNode;
  uint64_t source_seq = 0;
  /// Virtual time the originating leaf ingested the reading. Upper levels
  /// subtract it from their decision time to feed the per-tier
  /// detection.latency_s histograms (DESIGN.md §11). A timestamp the real
  /// protocol already pays for via source_seq, so not charged again to
  /// size_numbers.
  double ingest_time = 0.0;
};

/// One slot change of the replicated global sample.
struct GlobalSlotUpdate {
  uint32_t slot = 0;
  Point value;
};

/// Payload of kMsgRejoinAnnounce.
struct RejoinAnnouncePayload {
  /// The announcing node's new transport incarnation epoch.
  uint32_t incarnation = 0;
  /// Observations the node's restored model had already seen (0 for a cold
  /// restart) — tells the parent how degraded the child is.
  uint64_t restored_seen = 0;
  /// True if the restart restored a checkpoint.
  bool from_checkpoint = false;
  /// False on the initial announce; true on the follow-up announce sent
  /// once the node's model is capable again (closes the parent's
  /// degraded window for this child).
  bool recovered = false;

  /// Numbers on the wire: incarnation, seen count, and the two flags packed
  /// into one number.
  size_t SizeNumbers() const { return 3; }
};

/// Payload of kMsgRejoinResync.
struct RejoinResyncPayload {
  /// The parent model's current sample snapshot.
  std::vector<Point> sample;
  /// The parent's bandwidth spreads (see DensityModel::BandwidthSpreads).
  std::vector<double> spreads;
  /// Observations behind the parent's model, for context.
  uint64_t parent_seen = 0;

  /// Numbers on the wire: d coordinates per sample point + d spreads + the
  /// seen counter.
  size_t SizeNumbers(size_t dimensions) const {
    return sample.size() * dimensions + spreads.size() + 1;
  }
};

/// Payload of kMsgGlobalModelUpdate: the slots of the root's sample that
/// changed (all slots for a full push), plus the root's current standard
/// deviations for bandwidth selection at the leaves.
struct GlobalModelUpdatePayload {
  std::vector<GlobalSlotUpdate> updates;
  std::vector<double> stddevs;
  uint64_t version = 0;

  /// Numbers on the wire: (slot + d coordinates) per update + d sigmas + the
  /// version tag.
  size_t SizeNumbers(size_t dimensions) const {
    return updates.size() * (1 + dimensions) + stddevs.size() + 1;
  }
};

// ---- Protocol steps shared by the D3 and MGDD nodes ----------------------
// Each acts on behalf of `node`, which must be registered with a Simulator.

/// Sample propagation (D3 lines 14-15 / 30, MGDD lines 13-14 / 20-21): if
/// `inserted` (the value entered the node's sample) and the node has a
/// parent, sends `value` upward w.p. `fraction` (drawn from `rng`), bumping
/// `propagations` first.
void MaybePropagateSample(Node* node, bool inserted, const Point& value,
                          double fraction, Rng* rng,
                          obs::Counter* propagations);

/// Escalates a flagged value to the node's parent as kMsgOutlierReport,
/// continuing causal chain `trace_id` from `span_id`. No-op at the root.
void SendOutlierReport(Node* node, const OutlierReportPayload& report,
                       uint64_t trace_id, uint64_t span_id);

/// Announces a rejoin (or, if `recovered`, recovery complete) to the
/// node's parent, stamped with its current incarnation, and bumps
/// recovery.rejoin_announces. No-op at the root, which rejoins nobody.
void SendRejoinAnnounce(Node* node, uint64_t restored_seen,
                        bool from_checkpoint, bool recovered);

/// The leaf ingest gate: true if `value` passes the validation firewall and
/// is not part of a stuck-sensor run. Quarantine onset is flight-recorded
/// and dumps the node's black box, so the readings that led into the stuck
/// run survive for analysis.
bool AdmitReading(const Node& node, IngestValidator* validator,
                  StuckSensorDetector* stuck, const Point& value);

/// Reports one outlier decision (DESIGN.md §11), in order: the per-tier
/// detection-latency histogram, the trace sink's DecisionRecord — derived
/// from `event` and its provenance plus the deciding `span_id` and
/// `latency_s` — and then `observer` (may be null).
void ReportDecision(const OutlierEvent& event, uint64_t span_id,
                    double latency_s, OutlierObserver* observer);

}  // namespace sensord

#endif  // SENSORD_CORE_PROTOCOL_H_
