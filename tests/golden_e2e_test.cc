// Golden end-to-end regressions: fixed seeded D3 + MGDD scenarios with
// loss, faults, and the reliable transport, whose complete detection
// history and traffic counters are committed under tests/golden/:
//   e2e_outliers.txt     — an omission crash and a subtree partition;
//   recovery_history.txt — amnesia crashes of every detector node kind
//                          (D3 leaf, parent and root; MGDD leaf, internal
//                          node and root), with and without checkpoints,
//                          plus the rejoin traffic and recovery.* counters
//                          they cause.
// Any change to detector logic, transport behaviour, fault scheduling, RNG
// consumption, or event ordering shows up as a diff here — intentional
// changes regenerate via scripts/regen_golden.sh (or SENSORD_REGEN_GOLDEN=1).
//
// The golden file records integer identities and counters only (node ids,
// levels, sequence numbers, message tallies) — no floating-point text — so
// it is stable across build types and optimization levels.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/d3.h"
#include "core/mgdd.h"
#include "net/fault_schedule.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {
namespace {

constexpr char kGoldenRelPath[] = "/tests/golden/e2e_outliers.txt";
constexpr char kRecoveryGoldenRelPath[] = "/tests/golden/recovery_history.txt";

class RecordingObserver : public OutlierObserver {
 public:
  void OnOutlierDetected(const OutlierEvent& event) override {
    events.push_back(event);
  }
  std::vector<OutlierEvent> events;
};

void AppendEvents(const char* tag, const std::vector<OutlierEvent>& events,
                  std::string* out) {
  for (const OutlierEvent& e : events) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "%s node=%u level=%d leaf=%u seq=%llu deg=%d\n", tag,
                  e.node, e.level, e.source_leaf,
                  static_cast<unsigned long long>(e.source_seq),
                  e.degraded ? 1 : 0);
    *out += line;
  }
}

void AppendCounters(const char* tag, const Simulator& sim, std::string* out) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s messages=%llu dropped=%llu retries=%llu timeouts=%llu "
                "dup_suppressed=%llu abandoned=%llu acks=%llu\n",
                tag,
                static_cast<unsigned long long>(sim.stats().TotalMessages()),
                static_cast<unsigned long long>(sim.MessagesDropped()),
                static_cast<unsigned long long>(sim.transport().retries()),
                static_cast<unsigned long long>(sim.transport().timeouts()),
                static_cast<unsigned long long>(
                    sim.transport().dup_suppressed()),
                static_cast<unsigned long long>(sim.transport().abandoned()),
                static_cast<unsigned long long>(sim.transport().acks_sent()));
  *out += line;
}

constexpr int kRounds = 400;
constexpr int kLeaves = 8;

using Readings = std::vector<std::vector<Point>>;

// Per-detector workloads, matching the regimes the soak suite validates:
// D3 gets a tight Gaussian band with wide far extremes (distance outliers);
// MGDD gets two uniform bands with rare gap readings (MDEF local-density
// outliers).
struct Workloads {
  Readings d3;
  Readings mgdd;
};

Workloads MakeWorkloads() {
  Workloads w;
  Rng d3_rng(20260806);
  w.d3.assign(kRounds, std::vector<Point>(kLeaves));
  for (int round = 0; round < kRounds; ++round) {
    for (int leaf = 0; leaf < kLeaves; ++leaf) {
      w.d3[round][leaf] = {Clamp(d3_rng.Gaussian(0.4, 0.01), 0.0, 1.0)};
    }
    if (round % 7 == 0) {
      w.d3[round][(round / 7) % kLeaves] = {d3_rng.UniformDouble(0.6, 1.0)};
    }
  }
  Rng mgdd_rng(20060915);
  w.mgdd.assign(kRounds, std::vector<Point>(kLeaves));
  for (int round = 0; round < kRounds; ++round) {
    for (int leaf = 0; leaf < kLeaves; ++leaf) {
      w.mgdd[round][leaf] = {mgdd_rng.Bernoulli(0.5)
                                 ? mgdd_rng.UniformDouble(0.30, 0.42)
                                 : mgdd_rng.UniformDouble(0.50, 0.62)};
    }
    if (round % 7 == 0) {
      w.mgdd[round][(round / 7) % kLeaves] = {
          mgdd_rng.UniformDouble(0.44, 0.48)};
    }
  }
  return w;
}

// The radio both scenarios share: a flaky default link fault (14.5% loss,
// 2% duplicates) under the reliable transport.
std::unique_ptr<Simulator> MakeLossySimulator(double checkpoint_interval) {
  SimulatorOptions sim_opts;
  sim_opts.fault_seed = 0xFA;
  sim_opts.transport.reliable = true;
  sim_opts.transport.ack_timeout = 0.05;
  sim_opts.transport.max_retries = 4;
  sim_opts.recovery.checkpoint_interval = checkpoint_interval;
  auto sim = std::make_unique<Simulator>(sim_opts);
  LinkFault flaky;
  flaky.drop_probability = 1.0 - (1.0 - 0.1) * (1.0 - 0.05);
  flaky.duplicate_probability = 0.02;
  sim->faults().SetDefaultLinkFault(flaky);
  return sim;
}

// Builds the 8-leaf / fanout-2 hierarchy (ids 0-7 leaves, 8-11 level 2,
// 12-13 level 3, 14 the root) of D3 or MGDD nodes, then feeds it
// `readings` one round per virtual second and drains the queue.
void RunDetector(Simulator* sim, bool run_d3, const Readings& readings,
                 OutlierObserver* observer) {
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
    ids = sim->Instantiate(
        *layout,
        [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<D3LeafNode>(leaf_opts, node_rng.Split(),
                                                observer);
          }
          D3Options opts = leaf_opts;
          opts.model = LeaderModelConfig(leaf_opts.model, 2, 0.5, spec.level);
          opts.min_observations = 50;
          return std::make_unique<D3ParentNode>(opts, node_rng.Split(),
                                                observer);
        });
  } else {
    MgddOptions leaf_opts;
    leaf_opts.model.window_size = 400;
    leaf_opts.model.sample_size = 64;
    leaf_opts.min_observations = 200;
    leaf_opts.staleness_threshold = 30.0;
    // Scott's-rule bandwidths partially smear the bimodal gap; same
    // regime as MgddTest.DetectsDeviationAgainstGlobalModel.
    leaf_opts.mdef.k_sigma = 0.5;
    ids = sim->Instantiate(
        *layout,
        [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<MgddLeafNode>(leaf_opts, node_rng.Split(),
                                                  observer);
          }
          MgddOptions opts = leaf_opts;
          opts.model = LeaderModelConfig(leaf_opts.model, 2, 0.5, spec.level);
          return std::make_unique<MgddInternalNode>(opts, node_rng.Split());
        });
  }

  double t = 0.0;
  for (const auto& round : readings) {
    for (int leaf = 0; leaf < kLeaves; ++leaf) {
      sim->DeliverReading(ids[static_cast<size_t>(leaf)],
                          round[static_cast<size_t>(leaf)]);
    }
    t += 1.0;
    sim->RunUntil(t);
  }
  sim->RunAll();
}

// The scenario: 8 leaves / fanout 2, 400 rounds per detector, one leaf
// omission crash, one subtree partition.
std::string RunScenario() {
  const Workloads workloads = MakeWorkloads();
  std::string out = "# sensord golden e2e history; regenerate with "
                    "scripts/regen_golden.sh\n";
  for (const bool run_d3 : {true, false}) {
    auto sim = MakeLossySimulator(/*checkpoint_interval=*/0.0);
    sim->faults().CrashNode(2, 120.0, 160.0);
    sim->faults().Partition({4, 5}, 220.0, 260.0);
    RecordingObserver observer;
    RunDetector(sim.get(), run_d3, run_d3 ? workloads.d3 : workloads.mgdd,
                &observer);
    const char* tag = run_d3 ? "d3" : "mgdd";
    AppendEvents(tag, observer.events, &out);
    AppendCounters(run_d3 ? "d3.counters" : "mgdd.counters", *sim, &out);
  }
  return out;
}

// Rejoin traffic by kind plus the recovery.* counters (and the degraded
// windows the rejoins open) of one run. Integers only.
void AppendRecovery(const std::string& tag, const Simulator& sim,
                    std::string* out) {
  auto& registry = obs::MetricsRegistry::Global();
  const auto count = [&](const char* name) {
    return static_cast<unsigned long long>(
        registry.GetCounter(name)->value());
  };
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "%s announce_msgs=%llu resync_msgs=%llu checkpoints=%llu "
      "restarts=%llu restored=%llu cold=%llu announces=%llu resyncs=%llu "
      "recovered=%llu stale_epoch_dropped=%llu flushed_pending=%llu "
      "degraded_windows=%llu\n",
      tag.c_str(),
      static_cast<unsigned long long>(
          sim.stats().MessagesOfKind(kMsgRejoinAnnounce)),
      static_cast<unsigned long long>(
          sim.stats().MessagesOfKind(kMsgRejoinResync)),
      count("recovery.checkpoints"), count("recovery.restarts"),
      count("recovery.restored_from_checkpoint"),
      count("recovery.cold_restarts"), count("recovery.rejoin_announces"),
      count("recovery.rejoin_resyncs"),
      static_cast<unsigned long long>(
          registry
              .GetHistogram("recovery.time_to_recover_s",
                            obs::DurationBoundariesS())
              ->Count()),
      count("recovery.stale_epoch_dropped"),
      count("recovery.flushed_pending"), count("core.degraded_windows"));
  *out += line;
}

// The recovery scenario: the same radio and workloads, with amnesia crashes
// of a D3 leaf (2), a D3 level-2 parent (9) and the D3 root (14), or of an
// MGDD leaf (3), a non-root MGDD internal node (10) and the MGDD root (14);
// each detector once with periodic checkpoints and once cold.
std::string RunRecoveryScenario() {
  const Workloads workloads = MakeWorkloads();
  std::string out = "# sensord golden recovery history; regenerate with "
                    "scripts/regen_golden.sh\n";
  for (const bool run_d3 : {true, false}) {
    for (const double checkpoint_interval : {25.0, 0.0}) {
      const obs::ScopedMetricsReset metrics;
      auto sim = MakeLossySimulator(checkpoint_interval);
      sim->faults().CrashNode(run_d3 ? 2 : 3, 150.0, 170.0,
                              CrashKind::kAmnesia);
      sim->faults().CrashNode(run_d3 ? 9 : 10, 210.0, 230.0,
                              CrashKind::kAmnesia);
      sim->faults().CrashNode(14, 280.0, 300.0, CrashKind::kAmnesia);
      RecordingObserver observer;
      RunDetector(sim.get(), run_d3, run_d3 ? workloads.d3 : workloads.mgdd,
                  &observer);
      const std::string tag = std::string(run_d3 ? "d3" : "mgdd") +
                              (checkpoint_interval > 0.0 ? ".checkpointed"
                                                         : ".cold");
      AppendEvents(tag.c_str(), observer.events, &out);
      AppendCounters((tag + ".counters").c_str(), *sim, &out);
      AppendRecovery(tag + ".recovery", *sim, &out);
    }
  }
  return out;
}

// Compares `actual` against the committed golden at `rel_path`, or rewrites
// the golden when SENSORD_REGEN_GOLDEN is set.
void ExpectMatchesGolden(const char* rel_path, const std::string& actual) {
  const std::string golden_path = std::string(SENSORD_SOURCE_DIR) + rel_path;
  if (std::getenv("SENSORD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path
      << " — run scripts/regen_golden.sh and commit the result";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();

  // Compare line by line for a readable first-divergence message.
  std::istringstream exp_stream(expected), act_stream(actual);
  std::string exp_line, act_line;
  size_t line_no = 0;
  while (std::getline(exp_stream, exp_line)) {
    ++line_no;
    ASSERT_TRUE(std::getline(act_stream, act_line))
        << "output ends early at golden line " << line_no << ": " << exp_line;
    ASSERT_EQ(act_line, exp_line) << "first divergence at line " << line_no;
  }
  EXPECT_FALSE(std::getline(act_stream, act_line))
      << "output has extra lines beyond the golden file: " << act_line;
}

TEST(GoldenE2eTest, DetectionHistoryMatchesGolden) {
  ExpectMatchesGolden(kGoldenRelPath, RunScenario());
}

TEST(GoldenE2eTest, RecoveryHistoryMatchesGolden) {
  ExpectMatchesGolden(kRecoveryGoldenRelPath, RunRecoveryScenario());
}

// The scenarios themselves must be reproducible within one build before a
// committed golden can be meaningful across builds.
TEST(GoldenE2eTest, ScenarioIsDeterministicInProcess) {
  EXPECT_EQ(RunScenario(), RunScenario());
  EXPECT_EQ(RunRecoveryScenario(), RunRecoveryScenario());
}

}  // namespace
}  // namespace sensord
