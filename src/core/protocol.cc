#include "core/protocol.h"

#include <utility>

#include "core/detection_telemetry.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace sensord {

void MaybePropagateSample(Node* node, bool inserted, const Point& value,
                          double fraction, Rng* rng,
                          obs::Counter* propagations) {
  if (!inserted || node->parent() == kNoNode || !rng->Bernoulli(fraction)) {
    return;
  }
  propagations->Increment();
  Message msg;
  msg.from = node->id();
  msg.to = node->parent();
  msg.kind = kMsgSampleValue;
  msg.size_numbers = value.size();
  msg.payload = MakeSampleValue(value);
  node->sim()->Send(std::move(msg));
}

void SendOutlierReport(Node* node, const OutlierReportPayload& report,
                       uint64_t trace_id, uint64_t span_id) {
  if (node->parent() == kNoNode) return;
  Message msg;
  msg.from = node->id();
  msg.to = node->parent();
  msg.kind = kMsgOutlierReport;
  msg.size_numbers = report.value.size() + 2;
  msg.payload = report;
  msg.trace_id = trace_id;
  msg.trace_parent_span = span_id;
  node->sim()->Send(std::move(msg));
}

void SendRejoinAnnounce(Node* node, uint64_t restored_seen,
                        bool from_checkpoint, bool recovered) {
  if (node->parent() == kNoNode) return;  // the root rejoins nobody
  RejoinTelemetry().announces->Increment();
  RejoinAnnouncePayload ann;
  ann.incarnation = node->sim()->Incarnation(node->id());
  ann.restored_seen = restored_seen;
  ann.from_checkpoint = from_checkpoint;
  ann.recovered = recovered;
  Message msg;
  msg.from = node->id();
  msg.to = node->parent();
  msg.kind = kMsgRejoinAnnounce;
  msg.size_numbers = ann.SizeNumbers();
  msg.payload = ann;
  node->sim()->Send(std::move(msg));
}

bool AdmitReading(const Node& node, IngestValidator* validator,
                  StuckSensorDetector* stuck, const Point& value) {
  if (validator->Check(value) != IngestVerdict::kAccept) return false;
  const bool was_quarantined = stuck->quarantined();
  if (!stuck->ShouldQuarantine(value)) return true;
  if (!was_quarantined) {
    const SimTime now = node.sim()->Now();
    obs::FlightRecorder::Record(node.id(), obs::FlightEventKind::kQuarantine,
                                now, 0, 0, value.empty() ? 0.0 : value[0]);
    obs::FlightRecorder::Dump(node.id(), "quarantine", now);
  }
  return false;
}

void ReportDecision(const OutlierEvent& event, uint64_t span_id,
                    double latency_s, OutlierObserver* observer) {
  DetectionLatencyHist(event.level)->Record(latency_s);
  const OutlierProvenance& why = event.provenance;
  obs::DecisionRecord decision;
  decision.detector = event.detector == DetectorKind::kD3 ? "d3" : "mgdd";
  decision.node = event.node;
  decision.level = event.level;
  decision.virtual_time = event.time;
  decision.trace_id = why.trace_id;
  decision.span_id = span_id;
  decision.estimate = why.estimate;
  decision.threshold = why.threshold;
  decision.model_version = why.model_version;
  decision.staleness_s = why.staleness_s;
  decision.degraded = event.degraded;
  decision.latency_s = latency_s;
  obs::EmitDecisionRecord(decision);
  if (observer != nullptr) observer->OnOutlierDetected(event);
}

}  // namespace sensord
