// Soak suite (ctest label: soak): many-seed fault-injection sweeps over the
// full D3/MGDD message-level simulation.
//
//  * Recovery: with a 20% lossy radio, the ack/retransmit transport must
//    recover >= 95% of the loss-free D3 outlier set (and >= 90% for MGDD),
//    while plain datagrams demonstrably do not — the end-to-end argument
//    for carrying a reliability layer in a sensor network simulator.
//  * Invariants: across seeds x loss rates, with crashes and partitions
//    injected, the paper's Theorem 3 containment (every parent detection is
//    backed by a leaf detection of the same reading) must hold, the event
//    queue must drain, and drop accounting must stay consistent.
//  * Determinism: identical (seed, schedule) => identical event history,
//    and — under loss, link faults, the reliable transport and an amnesia
//    crash — byte-identical artifacts (metrics, trace and flight JSONL,
//    energy, counters, full-precision provenance).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/d3.h"
#include "core/mgdd.h"
#include "net/fault_schedule.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {
namespace {

// (level, node, source_leaf, source_seq) of one detection.
using EventKey = std::tuple<int, NodeId, NodeId, uint64_t>;

class RecordingObserver : public OutlierObserver {
 public:
  void OnOutlierDetected(const OutlierEvent& event) override {
    events.push_back(event);
  }
  std::vector<OutlierEvent> events;
};

// One reading per (round, leaf), identical across every run of a sweep so
// that only the radio differs between configurations. Injected anomalies
// (every 5th round, two leaves) land in [anomaly_lo, anomaly_hi] — the
// "true" outliers the recovery ratio tracks. D3 wants them far from the
// band (near-zero neighbour count); MDEF wants them just past the band,
// where the sampling neighbourhood still sees the band's mass (points in
// empty space are guarded off by min_neighborhood_mass).
std::vector<std::vector<Point>> MakeReadings(uint64_t seed, int rounds,
                                             int leaves, double anomaly_lo,
                                             double anomaly_hi) {
  Rng rng(seed);
  std::vector<std::vector<Point>> readings(
      static_cast<size_t>(rounds),
      std::vector<Point>(static_cast<size_t>(leaves)));
  for (int round = 0; round < rounds; ++round) {
    for (int leaf = 0; leaf < leaves; ++leaf) {
      readings[round][leaf] = {Clamp(rng.Gaussian(0.4, 0.01), 0.0, 1.0)};
    }
    if (round % 5 == 0) {
      const int which = round / 5;
      readings[round][which % leaves] = {
          rng.UniformDouble(anomaly_lo, anomaly_hi)};
      readings[round][(which + leaves / 2) % leaves] = {
          rng.UniformDouble(anomaly_lo, anomaly_hi)};
    }
  }
  return readings;
}

D3Options SoakD3() {
  D3Options opts;
  opts.model.window_size = 500;
  opts.model.sample_size = 100;
  opts.outlier.radius = 0.02;
  opts.outlier.neighbor_threshold = 10.0;
  opts.min_observations = 200;
  return opts;
}

MgddOptions SoakMgdd() {
  MgddOptions opts;
  opts.model.window_size = 400;
  opts.model.sample_size = 64;
  opts.min_observations = 200;
  // Scott's-rule bandwidths over bimodal data partially smear the gap, so
  // the deviation threshold sits below the paper's default (the same
  // regime as MgddTest.DetectsDeviationAgainstGlobalModel).
  opts.mdef.k_sigma = 0.5;
  return opts;
}

// MGDD workload: two dense uniform bands with an empty gap; anomalies are
// rare gap readings — the canonical local-density (MDEF) outlier.
std::vector<std::vector<Point>> MakeBimodalReadings(uint64_t seed, int rounds,
                                                    int leaves) {
  Rng rng(seed);
  std::vector<std::vector<Point>> readings(
      static_cast<size_t>(rounds),
      std::vector<Point>(static_cast<size_t>(leaves)));
  for (int round = 0; round < rounds; ++round) {
    for (int leaf = 0; leaf < leaves; ++leaf) {
      readings[round][leaf] = {rng.Bernoulli(0.5)
                                   ? rng.UniformDouble(0.30, 0.42)
                                   : rng.UniformDouble(0.50, 0.62)};
    }
    if (round % 5 == 0) {
      const int which = round / 5;
      readings[round][which % leaves] = {rng.UniformDouble(0.44, 0.48)};
      readings[round][(which + leaves / 2) % leaves] = {
          rng.UniformDouble(0.44, 0.48)};
    }
  }
  return readings;
}

struct RunResult {
  std::vector<OutlierEvent> events;
  uint64_t retries = 0;
  uint64_t abandoned = 0;
  uint64_t dropped = 0;
  size_t pending_events = 0;
};

enum class Detector { kD3, kMgdd };

RunResult RunDetector(Detector detector,
                      const std::vector<std::vector<Point>>& readings,
                      size_t fanout, uint64_t seed, double loss,
                      bool reliable,
                      const std::function<void(Simulator&)>& inject = {},
                      double checkpoint_interval = 0.0) {
  const size_t leaves = readings.empty() ? 0 : readings[0].size();
  SimulatorOptions sim_opts;
  sim_opts.fault_seed = seed * 104729 + 5;
  sim_opts.recovery.checkpoint_interval = checkpoint_interval;
  sim_opts.transport.reliable = reliable;
  sim_opts.transport.ack_timeout = 0.05;
  sim_opts.transport.backoff_factor = 2.0;
  sim_opts.transport.max_retries = 4;
  Simulator sim(sim_opts);
  LinkFault lossy;
  lossy.drop_probability = loss;
  sim.faults().SetDefaultLinkFault(lossy);

  RecordingObserver observer;
  Rng node_rng(seed * 1000 + 7);
  auto layout = BuildGridHierarchy(leaves, fanout);
  std::vector<NodeId> ids;
  if (detector == Detector::kD3) {
    ids = sim.Instantiate(
        *layout,
        [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<D3LeafNode>(SoakD3(), node_rng.Split(),
                                                &observer);
          }
          D3Options opts = SoakD3();
          opts.model =
              LeaderModelConfig(SoakD3().model, fanout, 0.5, spec.level);
          opts.min_observations = 50;
          return std::make_unique<D3ParentNode>(opts, node_rng.Split(),
                                                &observer);
        });
  } else {
    ids = sim.Instantiate(
        *layout,
        [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<MgddLeafNode>(SoakMgdd(), node_rng.Split(),
                                                  &observer);
          }
          MgddOptions opts = SoakMgdd();
          opts.model =
              LeaderModelConfig(SoakMgdd().model, fanout, 0.5, spec.level);
          return std::make_unique<MgddInternalNode>(opts, node_rng.Split());
        });
  }
  if (inject) inject(sim);

  double t = 0.0;
  for (const auto& round : readings) {
    for (size_t leaf = 0; leaf < leaves; ++leaf) {
      sim.DeliverReading(ids[leaf], round[leaf]);
    }
    t += 1.0;
    sim.RunUntil(t);
  }
  sim.RunAll();  // drain retransmission tails

  RunResult result;
  result.events = std::move(observer.events);
  result.retries = sim.transport().retries();
  result.abandoned = sim.transport().abandoned();
  result.dropped = sim.MessagesDropped();
  result.pending_events = sim.PendingEvents();
  EXPECT_EQ(sim.MessagesDropped(), sim.stats().MessagesDropped());
  return result;
}

// Readings (source_leaf, source_seq) of injected anomalies (value inside
// [lo, hi], a range the background never produces) that were detected at
// level >= min_level. Keying on the reading — not on which parent node or
// level reported it — makes the recovery ratio about whether the outlier
// survived the radio at all, not about borderline per-node confirmations
// that flip with retransmission-induced timing drift.
std::set<std::pair<NodeId, uint64_t>> AnomalyKeys(
    const std::vector<OutlierEvent>& events, int min_level, double lo,
    double hi) {
  std::set<std::pair<NodeId, uint64_t>> keys;
  for (const OutlierEvent& e : events) {
    if (e.level < min_level || e.value.empty()) continue;
    if (e.value[0] < lo || e.value[0] > hi) continue;
    keys.insert({e.source_leaf, e.source_seq});
  }
  return keys;
}

TEST(SimSoakTest, RetriesRecoverTheLossFreeOutlierSet) {
  const int kRounds = 600;
  const int kLeaves = 16;
  const size_t kFanout = 4;
  const double kLoss = 0.2;

  size_t d3_base_total = 0, d3_on_hits = 0, d3_off_hits = 0;
  size_t mgdd_base_total = 0, mgdd_on_hits = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    // D3: far extremes (near-zero neighbour count), scored on escalations
    // (level >= 2) — the events that need the radio.
    const auto d3_readings =
        MakeReadings(seed, kRounds, kLeaves, 0.60, 1.0);
    const auto base = AnomalyKeys(
        RunDetector(Detector::kD3, d3_readings, kFanout, seed, 0.0, false)
            .events,
        /*min_level=*/2, 0.55, 1.0);
    const auto lossy_on = AnomalyKeys(
        RunDetector(Detector::kD3, d3_readings, kFanout, seed, kLoss, true)
            .events,
        2, 0.55, 1.0);
    const auto lossy_off = AnomalyKeys(
        RunDetector(Detector::kD3, d3_readings, kFanout, seed, kLoss, false)
            .events,
        2, 0.55, 1.0);
    ASSERT_GT(base.size(), 50u) << "baseline must detect the anomalies";
    d3_base_total += base.size();
    for (const auto& key : base) {
      d3_on_hits += lossy_on.count(key);
      d3_off_hits += lossy_off.count(key);
    }

    // MGDD: bimodal bands with gap anomalies (MDEF's local-density
    // regime). Detection happens at the leaves; what the radio carries is
    // the global model, so score all detection events.
    const auto mgdd_readings =
        MakeBimodalReadings(seed + 100, kRounds, kLeaves);
    const auto mgdd_base = AnomalyKeys(
        RunDetector(Detector::kMgdd, mgdd_readings, kFanout, seed, 0.0, false)
            .events,
        /*min_level=*/1, 0.43, 0.49);
    const auto mgdd_on = AnomalyKeys(
        RunDetector(Detector::kMgdd, mgdd_readings, kFanout, seed, kLoss, true)
            .events,
        1, 0.43, 0.49);
    ASSERT_GT(mgdd_base.size(), 50u);
    mgdd_base_total += mgdd_base.size();
    for (const auto& key : mgdd_base) mgdd_on_hits += mgdd_on.count(key);
  }

  const double d3_on = static_cast<double>(d3_on_hits) /
                       static_cast<double>(d3_base_total);
  const double d3_off = static_cast<double>(d3_off_hits) /
                        static_cast<double>(d3_base_total);
  const double mgdd_on = static_cast<double>(mgdd_on_hits) /
                         static_cast<double>(mgdd_base_total);
  RecordProperty("d3_recovery_with_retries", std::to_string(d3_on));
  RecordProperty("d3_recovery_without_retries", std::to_string(d3_off));
  RecordProperty("mgdd_recovery_with_retries", std::to_string(mgdd_on));

  // The acceptance bar: retries restore >= 95% of the loss-free D3 set;
  // plain datagrams lose escalations at roughly the per-hop loss rate.
  EXPECT_GE(d3_on, 0.95) << "retries must recover the loss-free outlier set";
  EXPECT_LE(d3_off, 0.90) << "without retries 20% loss must visibly hurt";
  EXPECT_LT(d3_off, d3_on);
  EXPECT_GE(mgdd_on, 0.90);
}

TEST(SimSoakTest, InvariantsHoldAcrossSeedsAndFaults) {
  // 20 seeds x 3 loss rates, with a mid-run leaf crash and a partition of
  // one subtree, reliable transport on.
  const int kRounds = 250;
  const int kLeaves = 4;
  const size_t kFanout = 2;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (double loss : {0.0, 0.1, 0.3}) {
      const auto readings = MakeReadings(seed, kRounds, kLeaves, 0.60, 1.0);
      const RunResult run = RunDetector(
          Detector::kD3, readings, kFanout, seed, loss, /*reliable=*/true,
          [](Simulator& sim) {
            sim.faults().CrashNode(0, 80.0, 120.0);
            sim.faults().Partition({2, 3}, 150.0, 180.0);
          });

      // The queue drained: no stuck retransmission timers or lost wakeups.
      EXPECT_EQ(run.pending_events, 0u) << "seed " << seed << " loss " << loss;

      // Theorem 3 containment: every escalated detection is backed by a
      // leaf detection of the very same reading.
      std::set<std::pair<NodeId, uint64_t>> leaf_detections;
      for (const OutlierEvent& e : run.events) {
        if (e.level == 1) leaf_detections.insert({e.source_leaf, e.source_seq});
      }
      for (const OutlierEvent& e : run.events) {
        if (e.level < 2) continue;
        EXPECT_TRUE(leaf_detections.count({e.source_leaf, e.source_seq}))
            << "parent " << e.node << " detected a reading no leaf flagged "
            << "(seed " << seed << ", loss " << loss << ")";
      }

      // Under loss the transport actually worked for its living.
      if (loss > 0.0) {
        EXPECT_GT(run.retries, 0u);
      }
    }
  }
}

std::string EventHistory(const std::vector<OutlierEvent>& events) {
  std::string out;
  for (const OutlierEvent& e : events) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "t=%.9f det=%d node=%u level=%d leaf=%u seq=%llu deg=%d\n",
                  e.time, static_cast<int>(e.detector), e.node, e.level,
                  e.source_leaf,
                  static_cast<unsigned long long>(e.source_seq),
                  e.degraded ? 1 : 0);
    out += line;
  }
  return out;
}

// Seed sweep width for the crash-recovery soak; scripts/ci.sh widens it via
// SENSORD_SOAK_SEEDS for the nightly run.
uint64_t SoakSeedCount() {
  if (const char* env = std::getenv("SENSORD_SOAK_SEEDS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<uint64_t>(n);
  }
  return 4;
}

// Anomaly keys for crash runs. A crashed leaf misses every reading of its
// down window, so its post-restart seq counter runs behind the loss-free
// baseline and (leaf, seq) keys stop matching. The injected readings are
// deterministic and anomaly values are continuous draws (unique within a
// run with probability 1), so (leaf, value) identifies the same reading
// across fault schedules.
std::set<std::pair<NodeId, double>> AnomalyValueKeys(
    const std::vector<OutlierEvent>& events, int min_level, double lo,
    double hi) {
  std::set<std::pair<NodeId, double>> keys;
  for (const OutlierEvent& e : events) {
    if (e.level < min_level || e.value.empty()) continue;
    if (e.value[0] < lo || e.value[0] > hi) continue;
    keys.insert({e.source_leaf, e.value[0]});
  }
  return keys;
}

// Two leaves each lose their entire volatile state mid-run (amnesia crash)
// while the 20% lossy radio keeps running. With periodic checkpoints the
// restarted leaves resume from near-current models and the detected outlier
// set stays close to the loss-free baseline; with checkpointing off they
// cold-start and must re-learn min_observations readings, which measurably
// costs detections. Crashes land after the first checkpoints exist so that
// time-to-recover reflects the restore path, not initial warm-up.
TEST(SimSoakTest, AmnesiaCrashRecoverySoak) {
  const int kRounds = 600;
  const int kLeaves = 16;
  const size_t kFanout = 4;
  const double kLoss = 0.2;
  const double kCheckpointInterval = 50.0;
  const auto inject = [](Simulator& sim) {
    sim.faults().CrashNode(1, 250.0, 270.0, CrashKind::kAmnesia);
    sim.faults().CrashNode(9, 380.0, 400.0, CrashKind::kAmnesia);
  };

  auto& registry = obs::MetricsRegistry::Global();
  registry.ResetValues();

  // Phase 1: loss-free baselines and checkpointed crash runs. The TTR
  // histogram is read before any cold-start run pollutes it.
  size_t base_total = 0, ckpt_hits = 0;
  std::vector<std::set<std::pair<NodeId, double>>> base_keys;
  for (uint64_t seed = 1; seed <= SoakSeedCount(); ++seed) {
    const auto readings = MakeReadings(seed, kRounds, kLeaves, 0.60, 1.0);
    base_keys.push_back(AnomalyValueKeys(
        RunDetector(Detector::kD3, readings, kFanout, seed, 0.0, false)
            .events,
        /*min_level=*/2, 0.55, 1.0));
    ASSERT_GT(base_keys.back().size(), 50u);
    const auto ckpt = AnomalyValueKeys(
        RunDetector(Detector::kD3, readings, kFanout, seed, kLoss,
                    /*reliable=*/true, inject, kCheckpointInterval)
            .events,
        2, 0.55, 1.0);
    base_total += base_keys.back().size();
    for (const auto& key : base_keys.back()) ckpt_hits += ckpt.count(key);
  }
  EXPECT_GT(registry.GetCounter("recovery.restored_from_checkpoint")->value(),
            0u);
  EXPECT_EQ(registry.GetCounter("recovery.cold_restarts")->value(), 0u)
      << "with warm checkpoints every restart must restore";
  const double ttr_p95 =
      registry
          .GetHistogram("recovery.time_to_recover_s",
                        obs::DurationBoundariesS())
          ->Quantile(0.95);
  RecordProperty("ttr_p95_s", std::to_string(ttr_p95));
  EXPECT_LT(ttr_p95, 2.0 * kCheckpointInterval);

  // Phase 2: same crashes, checkpointing off — the counterfactual.
  size_t cold_hits = 0;
  for (uint64_t seed = 1; seed <= SoakSeedCount(); ++seed) {
    const auto readings = MakeReadings(seed, kRounds, kLeaves, 0.60, 1.0);
    const auto cold = AnomalyValueKeys(
        RunDetector(Detector::kD3, readings, kFanout, seed, kLoss,
                    /*reliable=*/true, inject, /*checkpoint_interval=*/0.0)
            .events,
        2, 0.55, 1.0);
    for (const auto& key : base_keys[seed - 1]) cold_hits += cold.count(key);
  }
  EXPECT_GT(registry.GetCounter("recovery.cold_restarts")->value(), 0u);

  const double ckpt_recall =
      static_cast<double>(ckpt_hits) / static_cast<double>(base_total);
  const double cold_recall =
      static_cast<double>(cold_hits) / static_cast<double>(base_total);
  RecordProperty("ckpt_recall", std::to_string(ckpt_recall));
  RecordProperty("cold_recall", std::to_string(cold_recall));
  EXPECT_GE(ckpt_recall, 0.90)
      << "checkpointed leaves must rejoin without losing the outlier set";
  EXPECT_LT(cold_recall, ckpt_recall)
      << "cold restarts must measurably cost detections";
}

TEST(SimSoakTest, AmnesiaRecoveryReplaysIdentically) {
  const int kRounds = 400;
  const int kLeaves = 8;
  const auto readings = MakeReadings(5, kRounds, kLeaves, 0.60, 1.0);
  const auto inject = [](Simulator& sim) {
    sim.faults().CrashNode(2, 150.0, 170.0, CrashKind::kAmnesia);
    sim.faults().CrashNode(6, 260.0, 280.0, CrashKind::kAmnesia);
  };
  const RunResult a =
      RunDetector(Detector::kD3, readings, 4, /*seed=*/5, 0.15,
                  /*reliable=*/true, inject, /*checkpoint_interval=*/40.0);
  const RunResult b =
      RunDetector(Detector::kD3, readings, 4, /*seed=*/5, 0.15,
                  /*reliable=*/true, inject, /*checkpoint_interval=*/40.0);
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(EventHistory(a.events), EventHistory(b.events))
      << "amnesia crash + checkpoint restore must replay bit-identically";
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.retries, b.retries);
}

TEST(SimSoakTest, SameSeedReplaysIdenticalEventHistory) {
  const int kRounds = 300;
  const int kLeaves = 8;
  for (uint64_t seed : {3u, 11u}) {
    const auto readings = MakeReadings(seed, kRounds, kLeaves, 0.60, 1.0);
    const auto inject = [](Simulator& sim) {
      // Replaces RunDetector's 10% default loss, so it carries both rates.
      LinkFault flaky;
      flaky.drop_probability = 1.0 - (1.0 - 0.1) * (1.0 - 0.15);
      flaky.duplicate_probability = 0.05;
      flaky.jitter_max = 0.01;
      sim.faults().SetDefaultLinkFault(flaky);
      sim.faults().CrashNode(1, 100.0, 130.0);
    };
    const RunResult a = RunDetector(Detector::kD3, readings, 4, seed, 0.1,
                                    /*reliable=*/true, inject);
    const RunResult b = RunDetector(Detector::kD3, readings, 4, seed, 0.1,
                                    /*reliable=*/true, inject);
    ASSERT_FALSE(a.events.empty());
    EXPECT_EQ(EventHistory(a.events), EventHistory(b.events))
        << "seed " << seed << " must replay bit-identically";
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.retries, b.retries);
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Everything a run can externalize. Unlike the golden e2e history this
// deliberately includes floating-point text (%.17g round-trips doubles
// exactly): both runs share one build, so the comparison must be exact —
// a reordered FP accumulation is precisely the class of bug to catch.
struct RunArtifacts {
  std::string events;    // outlier history incl. provenance
  std::string counters;  // transport + stats tallies
  std::string energy;    // per-node energy, full precision
  std::string metrics;   // MetricsToJson export
  std::string trace;     // causal-span/decision JSONL bytes
  std::string flight;    // flight-recorder dump JSONL bytes
};

// The scenario: 8 leaves / fanout 2 D3 hierarchy driven by periodic
// readings, a flaky default link fault (24% loss, 2% duplicates; deliveries
// under retransmission pressure), and an amnesia crash of leaf 2 with
// checkpointing on (checkpoint ticks and crash/restart events interleaved
// with the readings).
RunArtifacts RunScenario(const std::string& label) {
  const int kRounds = 200;
  const int kLeaves = 8;

  Rng data_rng(20260808);
  std::vector<std::vector<Point>> readings(kRounds,
                                           std::vector<Point>(kLeaves));
  for (int round = 0; round < kRounds; ++round) {
    for (int leaf = 0; leaf < kLeaves; ++leaf) {
      readings[static_cast<size_t>(round)][static_cast<size_t>(leaf)] = {
          Clamp(data_rng.Gaussian(0.4, 0.01), 0.0, 1.0)};
    }
    if (round % 5 == 0) {
      readings[static_cast<size_t>(round)][(round / 5) % kLeaves] = {
          data_rng.UniformDouble(0.6, 1.0)};
    }
  }

  const std::string trace_path =
      ::testing::TempDir() + "sim_soak_trace_" + label + ".jsonl";
  const std::string flight_path =
      ::testing::TempDir() + "sim_soak_flight_" + label + ".jsonl";

  obs::ScopedMetricsReset metrics_reset;
  EXPECT_TRUE(obs::OpenTraceSink(trace_path).ok());
  EXPECT_TRUE(obs::FlightRecorder::OpenDumpSink(flight_path).ok());
  obs::FlightRecorder::Enable(32);

  RunArtifacts artifacts;
  {
    SimulatorOptions sim_opts;
    sim_opts.fault_seed = 0xFA;
    sim_opts.transport.reliable = true;
    sim_opts.transport.ack_timeout = 0.05;
    sim_opts.transport.max_retries = 4;
    sim_opts.recovery.checkpoint_interval = 10.0;
    Simulator sim(sim_opts);

    LinkFault flaky;
    flaky.drop_probability = 1.0 - (1.0 - 0.2) * (1.0 - 0.05);
    flaky.duplicate_probability = 0.02;
    sim.faults().SetDefaultLinkFault(flaky);
    sim.faults().CrashNode(2, 60.0, 90.0, CrashKind::kAmnesia);

    RecordingObserver observer;
    Rng node_rng(99);
    auto layout = BuildGridHierarchy(kLeaves, 2);
    D3Options leaf_opts;
    leaf_opts.model.window_size = 400;
    leaf_opts.model.sample_size = 80;
    leaf_opts.outlier.radius = 0.02;
    leaf_opts.outlier.neighbor_threshold = 10.0;
    leaf_opts.min_observations = 100;
    leaf_opts.staleness_threshold = 30.0;
    std::vector<NodeId> ids = sim.Instantiate(
        *layout,
        [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<D3LeafNode>(leaf_opts, node_rng.Split(),
                                                &observer);
          }
          D3Options opts = leaf_opts;
          opts.model = LeaderModelConfig(leaf_opts.model, 2, 0.5, spec.level);
          opts.min_observations = 50;
          return std::make_unique<D3ParentNode>(opts, node_rng.Split(),
                                                &observer);
        });

    for (int leaf = 0; leaf < kLeaves; ++leaf) {
      const NodeId id = ids[static_cast<size_t>(leaf)];
      sim.SchedulePeriodicReadings(
          id, 1.0, 1.0, [&readings, leaf, i = size_t{0}]() mutable {
            return readings[i++ % readings.size()][static_cast<size_t>(leaf)];
          });
    }

    sim.RunUntil(static_cast<SimTime>(kRounds));
    sim.RunAll();

    for (const OutlierEvent& e : observer.events) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "node=%u level=%d leaf=%u seq=%llu deg=%d est=%.17g "
                    "thr=%.17g ver=%llu stale=%.17g trace=%llu\n",
                    e.node, e.level, e.source_leaf,
                    static_cast<unsigned long long>(e.source_seq),
                    e.degraded ? 1 : 0, e.provenance.estimate,
                    e.provenance.threshold,
                    static_cast<unsigned long long>(
                        e.provenance.model_version),
                    e.provenance.staleness_s,
                    static_cast<unsigned long long>(e.provenance.trace_id));
      artifacts.events += line;
    }
    {
      char line[256];
      std::snprintf(
          line, sizeof(line),
          "messages=%llu dropped=%llu retries=%llu timeouts=%llu "
          "dup_suppressed=%llu abandoned=%llu acks=%llu\n",
          static_cast<unsigned long long>(sim.stats().TotalMessages()),
          static_cast<unsigned long long>(sim.MessagesDropped()),
          static_cast<unsigned long long>(sim.transport().retries()),
          static_cast<unsigned long long>(sim.transport().timeouts()),
          static_cast<unsigned long long>(sim.transport().dup_suppressed()),
          static_cast<unsigned long long>(sim.transport().abandoned()),
          static_cast<unsigned long long>(sim.transport().acks_sent()));
      artifacts.counters = line;
    }
    for (const NodeId id : ids) {
      char line[64];
      std::snprintf(line, sizeof(line), "energy[%u]=%.17g\n", id,
                    sim.EnergyConsumed(id));
      artifacts.energy += line;
    }

    obs::FlightRecorder::DumpAll("end-of-run");
  }

  obs::FlightRecorder::Disable();
  obs::FlightRecorder::CloseDumpSink();
  obs::CloseTraceSink();

  artifacts.metrics = obs::MetricsToJson(obs::MetricsRegistry::Global());
  artifacts.trace = ReadFileBytes(trace_path);
  artifacts.flight = ReadFileBytes(flight_path);
  std::remove(trace_path.c_str());
  std::remove(flight_path.c_str());
  return artifacts;
}

// Line-by-line comparison so a divergence reports its first differing line
// instead of two multi-kilobyte blobs.
void ExpectSameArtifact(const char* what, const std::string& expected,
                        const std::string& actual) {
  if (expected == actual) return;
  std::istringstream exp_stream(expected), act_stream(actual);
  std::string exp_line, act_line;
  size_t line_no = 0;
  for (;;) {
    ++line_no;
    const bool has_exp = static_cast<bool>(std::getline(exp_stream, exp_line));
    const bool has_act = static_cast<bool>(std::getline(act_stream, act_line));
    if (!has_exp && !has_act) break;
    if (!has_exp) exp_line = "<end of first run's output>";
    if (!has_act) act_line = "<end of second run's output>";
    ASSERT_EQ(act_line, exp_line)
        << what << ": first divergence at line " << line_no;
    if (!has_exp || !has_act) break;
  }
  // Same lines but different bytes (e.g. trailing newline): fall back to
  // the blob comparison for the failure record.
  EXPECT_EQ(actual, expected) << what << ": byte-level difference";
}

void ExpectSameRun(const RunArtifacts& first, const RunArtifacts& second) {
  ExpectSameArtifact("outlier history", first.events, second.events);
  ExpectSameArtifact("traffic counters", first.counters, second.counters);
  ExpectSameArtifact("per-node energy", first.energy, second.energy);
  ExpectSameArtifact("metrics export", first.metrics, second.metrics);
  ExpectSameArtifact("trace JSONL", first.trace, second.trace);
  ExpectSameArtifact("flight dump JSONL", first.flight, second.flight);
}

// Under loss, retransmission, link faults, and an amnesia crash with
// checkpoints, a same-seed re-run reproduces every artifact byte for byte:
// outlier history with full-precision provenance, traffic counters,
// per-node energy, the metrics export, and the trace and flight JSONL.
TEST(SimSoakTest, SameSeedReplaysEveryArtifactByteForByte) {
  const RunArtifacts first = RunScenario("a");
  const RunArtifacts second = RunScenario("b");
  ASSERT_FALSE(first.events.empty()) << "scenario detected no outliers";
  ASSERT_FALSE(first.trace.empty()) << "scenario emitted no trace spans";
  ASSERT_FALSE(first.flight.empty()) << "scenario dumped no flight records";
  ExpectSameRun(first, second);
}

}  // namespace
}  // namespace sensord
