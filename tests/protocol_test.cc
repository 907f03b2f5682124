#include "core/protocol.h"

#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/detection_telemetry.h"
#include "core/faulty_sensor.h"
#include "core/outlier_observer.h"
#include "data/validate.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace sensord {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ProtocolTest, KindValuesAreStable) {
  // The wire protocol is part of the public contract; renumbering would
  // break mixed-version deployments.
  EXPECT_EQ(kMsgSampleValue, 1);
  EXPECT_EQ(kMsgOutlierReport, 2);
  EXPECT_EQ(kMsgGlobalModelUpdate, 3);
  EXPECT_EQ(kMsgRawReading, 4);
  EXPECT_EQ(kMsgQueryRequest, 5);
  EXPECT_EQ(kMsgQueryResponse, 6);
  EXPECT_EQ(kMsgRejoinAnnounce, 7);
  EXPECT_EQ(kMsgRejoinResync, 8);
}

TEST(ProtocolTest, KindsBelowApplicationRange) {
  for (MessageKind k : {kMsgSampleValue, kMsgOutlierReport,
                        kMsgGlobalModelUpdate, kMsgRawReading,
                        kMsgQueryRequest, kMsgQueryResponse,
                        kMsgRejoinAnnounce, kMsgRejoinResync}) {
    EXPECT_LT(k, 100) << "reserved range per net/message.h";
  }
}

TEST(ProtocolTest, GlobalUpdateSizeAccounting) {
  GlobalModelUpdatePayload payload;
  payload.stddevs = {0.1, 0.2};
  payload.updates.push_back({0, {0.5, 0.5}});
  payload.updates.push_back({3, {0.1, 0.9}});
  // 2 updates x (slot + 2 coords) + 2 sigmas + version tag = 9 numbers.
  EXPECT_EQ(payload.SizeNumbers(2), 9u);
}

TEST(ProtocolTest, GlobalUpdateEmptyIsJustSigmasAndVersion) {
  GlobalModelUpdatePayload payload;
  payload.stddevs = {0.1};
  EXPECT_EQ(payload.SizeNumbers(1), 2u);
}

TEST(ProtocolTest, OutlierReportCarriesProvenance) {
  OutlierReportPayload report;
  report.value = {0.9};
  report.origin_level = 2;
  report.source_leaf = 7;
  report.source_seq = 1234;
  // Round-trip through the std::any a Message carries.
  Message msg;
  msg.payload = report;
  const auto& out = std::any_cast<const OutlierReportPayload&>(msg.payload);
  EXPECT_EQ(out.source_leaf, 7u);
  EXPECT_EQ(out.source_seq, 1234u);
  EXPECT_EQ(out.origin_level, 2);
}

// ---- Shared protocol steps --------------------------------------------------

// Records every delivered message; stands in for a detector node so the
// steps are observed on the wire alone.
class ProbeNode : public Node {
 public:
  void HandleMessage(const Message& msg) override { received.push_back(msg); }
  std::vector<Message> received;
};

// Two probe leaves under one probe root, on an ideal radio.
class ProtocolStepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto layout = BuildGridHierarchy(2, 2);
    ASSERT_TRUE(layout.ok());
    ids_ = sim_.Instantiate(
        *layout, [](int, const HierarchyNodeSpec&) -> std::unique_ptr<Node> {
          return std::make_unique<ProbeNode>();
        });
  }

  ProbeNode& leaf() { return Probe(ids_[0]); }
  ProbeNode& sibling() { return Probe(ids_[1]); }
  ProbeNode& root() { return Probe(leaf().parent()); }
  ProbeNode& Probe(NodeId id) { return static_cast<ProbeNode&>(sim_.node(id)); }

  obs::ScopedMetricsReset metrics_;
  Simulator sim_{SimulatorOptions{}};
  std::vector<NodeId> ids_;
};

TEST_F(ProtocolStepTest, SamplePropagationIsGatedAndGoesToParent) {
  obs::Counter* propagations =
      obs::MetricsRegistry::Global().GetCounter("test.protocol.propagations");
  Rng rng(7);
  MaybePropagateSample(&leaf(), /*inserted=*/true, {0.25, 0.75},
                       /*fraction=*/1.0, &rng, propagations);
  // Not inserted into the sample, gate closed, no parent: nothing sent.
  MaybePropagateSample(&leaf(), /*inserted=*/false, {0.5, 0.5}, 1.0, &rng,
                       propagations);
  MaybePropagateSample(&leaf(), /*inserted=*/true, {0.5, 0.5},
                       /*fraction=*/0.0, &rng, propagations);
  MaybePropagateSample(&root(), /*inserted=*/true, {0.5, 0.5}, 1.0, &rng,
                       propagations);
  sim_.RunAll();

  ASSERT_EQ(root().received.size(), 1u);
  const Message& msg = root().received[0];
  EXPECT_EQ(msg.kind, kMsgSampleValue);
  EXPECT_EQ(msg.from, leaf().id());
  EXPECT_EQ(msg.to, root().id());
  EXPECT_EQ(msg.size_numbers, 2u);
  EXPECT_EQ(std::any_cast<const SharedSampleValue&>(msg.payload)->value,
            (Point{0.25, 0.75}));
  EXPECT_EQ(propagations->value(), 1u);
  EXPECT_TRUE(sibling().received.empty());
}

TEST_F(ProtocolStepTest, OutlierReportCarriesPayloadAndTraceContext) {
  OutlierReportPayload report{{0.9}, /*origin_level=*/1, leaf().id(), 42};
  report.ingest_time = 3.5;
  SendOutlierReport(&leaf(), report, /*trace_id=*/77, /*span_id=*/88);
  SendOutlierReport(&root(), report, 77, 88);  // the root escalates nowhere
  sim_.RunAll();

  ASSERT_EQ(root().received.size(), 1u);
  const Message& msg = root().received[0];
  EXPECT_EQ(msg.kind, kMsgOutlierReport);
  EXPECT_EQ(msg.from, leaf().id());
  EXPECT_EQ(msg.to, root().id());
  EXPECT_EQ(msg.size_numbers, 3u);  // the value + leaf id + sequence number
  EXPECT_EQ(msg.trace_id, 77u);
  EXPECT_EQ(msg.trace_parent_span, 88u);
  const auto& out = std::any_cast<const OutlierReportPayload&>(msg.payload);
  EXPECT_EQ(out.value, (Point{0.9}));
  EXPECT_EQ(out.origin_level, 1);
  EXPECT_EQ(out.source_leaf, leaf().id());
  EXPECT_EQ(out.source_seq, 42u);
  EXPECT_EQ(out.ingest_time, 3.5);
}

TEST_F(ProtocolStepTest, RejoinAnnounceReachesParentAndCountsOnce) {
  obs::Counter* announces =
      obs::MetricsRegistry::Global().GetCounter("recovery.rejoin_announces");
  SendRejoinAnnounce(&leaf(), /*restored_seen=*/123, /*from_checkpoint=*/true,
                     /*recovered=*/false);
  EXPECT_EQ(announces->value(), 1u);
  // The root rejoins nobody: no message, no count.
  SendRejoinAnnounce(&root(), 5, false, false);
  EXPECT_EQ(announces->value(), 1u);
  sim_.RunAll();

  ASSERT_EQ(root().received.size(), 1u);
  const Message& msg = root().received[0];
  EXPECT_EQ(msg.kind, kMsgRejoinAnnounce);
  EXPECT_EQ(msg.from, leaf().id());
  EXPECT_EQ(msg.to, root().id());
  EXPECT_EQ(msg.size_numbers, 3u);
  const auto& ann = std::any_cast<const RejoinAnnouncePayload&>(msg.payload);
  EXPECT_EQ(ann.incarnation, sim_.Incarnation(leaf().id()));
  EXPECT_EQ(ann.restored_seen, 123u);
  EXPECT_TRUE(ann.from_checkpoint);
  EXPECT_FALSE(ann.recovered);
}

TEST_F(ProtocolStepTest, IngestGateDropsBadAndStuckReadings) {
  const std::string path = ::testing::TempDir() + "protocol_quarantine.jsonl";
  obs::FlightRecorder::Enable();
  ASSERT_TRUE(obs::FlightRecorder::OpenDumpSink(path).ok());
  IngestPolicy policy;
  policy.stuck_run_threshold = 2;
  IngestValidator validator(policy);
  StuckSensorDetector stuck(policy.stuck_run_threshold);

  EXPECT_FALSE(AdmitReading(leaf(), &validator, &stuck, {std::nan("")}));
  EXPECT_TRUE(AdmitReading(leaf(), &validator, &stuck, {0.5}));
  EXPECT_TRUE(AdmitReading(leaf(), &validator, &stuck, {0.5}));
  EXPECT_FALSE(AdmitReading(leaf(), &validator, &stuck, {0.5}));  // onset
  EXPECT_FALSE(AdmitReading(leaf(), &validator, &stuck, {0.5}));
  EXPECT_TRUE(AdmitReading(leaf(), &validator, &stuck, {0.6}));
  obs::FlightRecorder::CloseDumpSink();
  obs::FlightRecorder::Disable();

  EXPECT_EQ(validator.rejected(), 1u);
  EXPECT_EQ(stuck.rejected(), 2u);
  // Only the onset dumps the black box: one header, one quarantine event.
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("{\"flight\":\"quarantine\",\"node\":" +
                               std::to_string(leaf().id()) + ",",
                           0),
            0u)
      << lines[0];
  EXPECT_EQ(lines[1].rfind("{\"fr\":\"quarantine\"", 0), 0u) << lines[1];
}

class RecordingObserver : public OutlierObserver {
 public:
  void OnOutlierDetected(const OutlierEvent& event) override {
    events.push_back(event);
  }
  std::vector<OutlierEvent> events;
};

TEST(ProtocolDecisionTest, DecisionRecordIsDerivedFromTheEvent) {
  const obs::ScopedMetricsReset metrics;
  const std::string path = ::testing::TempDir() + "protocol_decision.jsonl";
  ASSERT_TRUE(obs::OpenTraceSink(path).ok());
  OutlierEvent event{DetectorKind::kMgdd, /*node=*/5, /*level=*/3, {0.1},
                     /*time=*/12.5, /*source_leaf=*/1, /*source_seq=*/9};
  event.degraded = true;
  event.provenance = OutlierProvenance{/*estimate=*/2.5, /*threshold=*/1.5,
                                       /*model_version=*/44,
                                       /*staleness_s=*/0.75, /*trace_id=*/1234};
  RecordingObserver observer;
  ReportDecision(event, /*span_id=*/99, /*latency_s=*/0.25, &observer);
  ReportDecision(event, 99, 0.25, /*observer=*/nullptr);
  obs::CloseTraceSink();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"decision\":\"mgdd\",\"node\":5,\"level\":3,\"vt\":12.5,"
            "\"trace\":1234,\"span\":99,\"estimate\":2.5,\"threshold\":1.5,"
            "\"model_version\":44,\"staleness_s\":0.75,\"degraded\":1,"
            "\"latency_s\":0.25}");
  ASSERT_EQ(observer.events.size(), 1u);
  EXPECT_EQ(observer.events[0].source_seq, 9u);
  EXPECT_EQ(observer.events[0].provenance.trace_id, 1234u);
  EXPECT_EQ(DetectionLatencyHist(3)->Count(), 2u);
}

}  // namespace
}  // namespace sensord
