// End-to-end contract of the causal tracing layer (DESIGN.md §11): a seeded
// D3 + MGDD scenario with loss, duplication, an amnesia crash and the
// reliable transport, run with the trace and flight-recorder sinks open,
// must (a) emit byte-identical JSONL across two same-seed runs — trace ids
// survive retransmits, dedup and transport epochs — and (b) produce a
// complete leaf-to-root causal chain for every decision record, with no
// orphan spans anywhere in the artifact.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/d3.h"
#include "core/mgdd.h"
#include "net/fault_schedule.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class RecordingObserver : public OutlierObserver {
 public:
  void OnOutlierDetected(const OutlierEvent& event) override {
    events.push_back(event);
  }
  std::vector<OutlierEvent> events;
};

// Minimal JSONL field access for the fixed formats trace.cc emits.
bool HasKey(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\":") != std::string::npos;
}

uint64_t U64Field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// The golden-e2e scenario shape at half scale, with the sinks open: 4
// leaves / fanout 2, a flaky duplicating default link (14.5% loss), one
// amnesia crash with periodic checkpoints, reliable transport. Runs D3
// then MGDD against the same open sinks, so the artifacts interleave both
// detectors' chains.
void RunTracedScenario(const std::string& trace_path,
                       const std::string& flight_path,
                       std::vector<OutlierEvent>* events_out,
                       bool enable_sinks = true) {
  const int kRounds = 300;
  const int kLeaves = 4;

  if (enable_sinks) {
    ASSERT_TRUE(obs::OpenTraceSink(trace_path).ok());
    obs::FlightRecorder::Enable(/*capacity_per_node=*/32);
    ASSERT_TRUE(obs::FlightRecorder::OpenDumpSink(flight_path).ok());
  }

  for (const bool run_d3 : {true, false}) {
    SimulatorOptions sim_opts;
    sim_opts.fault_seed = 0xFA;
    sim_opts.transport.reliable = true;
    sim_opts.transport.ack_timeout = 0.05;
    sim_opts.transport.max_retries = 4;
    sim_opts.recovery.checkpoint_interval = 25.0;
    Simulator sim(sim_opts);
    LinkFault flaky;
    flaky.drop_probability = 1.0 - (1.0 - 0.1) * (1.0 - 0.05);
    flaky.duplicate_probability = 0.02;
    sim.faults().SetDefaultLinkFault(flaky);
    sim.faults().CrashNode(2, 120.0, 160.0, CrashKind::kAmnesia);

    RecordingObserver observer;
    Rng node_rng(99);
    auto layout = BuildGridHierarchy(kLeaves, 2);
    std::vector<NodeId> ids;
    if (run_d3) {
      D3Options leaf_opts;
      leaf_opts.model.window_size = 500;
      leaf_opts.model.sample_size = 100;
      leaf_opts.outlier.radius = 0.02;
      leaf_opts.outlier.neighbor_threshold = 10.0;
      leaf_opts.min_observations = 200;
      leaf_opts.staleness_threshold = 30.0;
      ids = sim.Instantiate(
          *layout,
          [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
            if (spec.level == 1) {
              return std::make_unique<D3LeafNode>(leaf_opts, node_rng.Split(),
                                                  &observer);
            }
            D3Options opts = leaf_opts;
            opts.model =
                LeaderModelConfig(leaf_opts.model, 2, 0.5, spec.level);
            opts.min_observations = 50;
            return std::make_unique<D3ParentNode>(opts, node_rng.Split(),
                                                  &observer);
          });
    } else {
      MgddOptions leaf_opts;
      leaf_opts.model.window_size = 400;
      leaf_opts.model.sample_size = 64;
      leaf_opts.min_observations = 200;
      leaf_opts.staleness_threshold = 30.0;
      leaf_opts.mdef.k_sigma = 0.5;
      ids = sim.Instantiate(
          *layout,
          [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
            if (spec.level == 1) {
              return std::make_unique<MgddLeafNode>(
                  leaf_opts, node_rng.Split(), &observer);
            }
            MgddOptions opts = leaf_opts;
            opts.model =
                LeaderModelConfig(leaf_opts.model, 2, 0.5, spec.level);
            return std::make_unique<MgddInternalNode>(opts, node_rng.Split());
          });
    }

    Rng readings_rng(run_d3 ? 20260806 : 20060915);
    double t = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      for (int leaf = 0; leaf < kLeaves; ++leaf) {
        Point p;
        if (run_d3) {
          p = {Clamp(readings_rng.Gaussian(0.4, 0.01), 0.0, 1.0)};
          if (round % 7 == 0 && leaf == (round / 7) % kLeaves) {
            p = {readings_rng.UniformDouble(0.6, 1.0)};
          }
        } else {
          p = {readings_rng.Bernoulli(0.5)
                   ? readings_rng.UniformDouble(0.30, 0.42)
                   : readings_rng.UniformDouble(0.50, 0.62)};
          if (round % 7 == 0 && leaf == (round / 7) % kLeaves) {
            p = {readings_rng.UniformDouble(0.44, 0.48)};
          }
        }
        sim.DeliverReading(ids[static_cast<size_t>(leaf)], p);
      }
      t += 1.0;
      sim.RunUntil(t);
    }
    sim.RunAll();
    if (events_out != nullptr) {
      events_out->insert(events_out->end(), observer.events.begin(),
                         observer.events.end());
    }
  }

  if (enable_sinks) {
    obs::FlightRecorder::DumpAll("shutdown");
    obs::FlightRecorder::Disable();
    obs::FlightRecorder::CloseDumpSink();
    obs::CloseTraceSink();
  }
}

// (a) The determinism acceptance gate: same seed, byte-identical artifacts,
// even though the scenario exercises loss, duplication (transport dedup),
// retransmits, and an amnesia crash's transport-epoch bump.
TEST(CausalTraceTest, SameSeedRunsEmitByteIdenticalArtifacts) {
  const std::string trace_a = TempPath("causal_trace_a.jsonl");
  const std::string flight_a = TempPath("causal_flight_a.jsonl");
  const std::string trace_b = TempPath("causal_trace_b.jsonl");
  const std::string flight_b = TempPath("causal_flight_b.jsonl");

  RunTracedScenario(trace_a, flight_a, nullptr);
  RunTracedScenario(trace_b, flight_b, nullptr);

  const std::string trace_bytes = ReadFile(trace_a);
  ASSERT_FALSE(trace_bytes.empty());
  EXPECT_EQ(trace_bytes, ReadFile(trace_b));
  const std::string flight_bytes = ReadFile(flight_a);
  ASSERT_FALSE(flight_bytes.empty());
  EXPECT_EQ(flight_bytes, ReadFile(flight_b));
  // The crash fault must have produced at least the crash and rejoin dumps.
  EXPECT_NE(flight_bytes.find("\"flight\":\"crash\""), std::string::npos);
  EXPECT_NE(flight_bytes.find("\"flight\":\"rejoin\""), std::string::npos);

  std::remove(trace_a.c_str());
  std::remove(flight_a.c_str());
  std::remove(trace_b.c_str());
  std::remove(flight_b.c_str());
}

// (b) Chain completeness: every decision record's span walks parent links
// to a root span (parent 0) that exists in the artifact, and no causal span
// anywhere references a parent that was never emitted.
TEST(CausalTraceTest, EveryDecisionHasACompleteRootedChain) {
  const std::string trace_path = TempPath("causal_trace_chains.jsonl");
  const std::string flight_path = TempPath("causal_flight_chains.jsonl");
  std::vector<OutlierEvent> events;
  RunTracedScenario(trace_path, flight_path, &events);

  // Index causal spans: (trace, span) -> parent.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> spans;
  std::vector<std::string> decisions;
  for (const std::string& line : ReadLines(trace_path)) {
    if (HasKey(line, "decision")) {
      decisions.push_back(line);
    } else if (HasKey(line, "parent")) {
      spans[{U64Field(line, "trace"), U64Field(line, "span")}] =
          U64Field(line, "parent");
    }
  }
  ASSERT_FALSE(spans.empty());
  ASSERT_FALSE(decisions.empty());

  // No orphans: every non-zero parent is an emitted span of the same trace.
  for (const auto& [key, parent] : spans) {
    if (parent == 0) continue;
    EXPECT_TRUE(spans.count({key.first, parent}))
        << "orphan span " << key.second << " of trace " << key.first
        << " references missing parent " << parent;
  }

  // Every decision's span exists and walks to a root within its trace.
  for (const std::string& line : decisions) {
    const uint64_t trace = U64Field(line, "trace");
    uint64_t cursor = U64Field(line, "span");
    ASSERT_TRUE(spans.count({trace, cursor})) << line;
    std::set<uint64_t> seen;
    size_t hops = 0;
    while (cursor != 0) {
      ASSERT_TRUE(seen.insert(cursor).second)
          << "parent cycle in trace " << trace;
      const auto it = spans.find({trace, cursor});
      ASSERT_NE(it, spans.end())
          << "chain of " << line << " breaks at span " << cursor;
      cursor = it->second;
      ++hops;
    }
    EXPECT_GE(hops, 1u);
  }

  // The observer-facing provenance carries the same ids: every outlier
  // event names a trace that exists in the artifact, with a real threshold.
  ASSERT_FALSE(events.empty());
  std::set<uint64_t> traces;
  for (const auto& [key, parent] : spans) traces.insert(key.first);
  for (const OutlierEvent& event : events) {
    EXPECT_NE(event.provenance.trace_id, 0u);
    EXPECT_TRUE(traces.count(event.provenance.trace_id))
        << "event trace " << event.provenance.trace_id
        << " has no spans in the artifact";
    EXPECT_GT(event.provenance.threshold, 0.0);
  }

  std::remove(trace_path.c_str());
  std::remove(flight_path.c_str());
}

// Tracing on vs. off must not change the detection history — tracing draws
// no randomness and schedules no competing events (the crash-dump hook
// consumes none), so the golden e2e history stays valid with the sinks open.
TEST(CausalTraceTest, TracingDoesNotPerturbTheDetectionHistory) {
  std::vector<OutlierEvent> with_tracing;
  const std::string trace_path = TempPath("causal_trace_onoff.jsonl");
  const std::string flight_path = TempPath("causal_flight_onoff.jsonl");
  RunTracedScenario(trace_path, flight_path, &with_tracing);
  std::remove(trace_path.c_str());
  std::remove(flight_path.c_str());

  // Same scenario with every sink left disabled end to end.
  ASSERT_FALSE(obs::TraceSinkEnabled());
  ASSERT_FALSE(obs::FlightRecorder::Enabled());
  std::vector<OutlierEvent> without_tracing;
  RunTracedScenario("", "", &without_tracing, /*enable_sinks=*/false);

  ASSERT_EQ(with_tracing.size(), without_tracing.size());
  for (size_t i = 0; i < with_tracing.size(); ++i) {
    EXPECT_EQ(with_tracing[i].node, without_tracing[i].node);
    EXPECT_EQ(with_tracing[i].level, without_tracing[i].level);
    EXPECT_EQ(with_tracing[i].source_leaf, without_tracing[i].source_leaf);
    EXPECT_EQ(with_tracing[i].source_seq, without_tracing[i].source_seq);
    // Provenance is populated either way: it rides the event, not the sink.
    EXPECT_EQ(with_tracing[i].provenance.trace_id,
              without_tracing[i].provenance.trace_id);
  }
}

}  // namespace
}  // namespace sensord
