// Failure-injection suites: what happens when parts of the system
// misbehave — lossy radios during model dissemination, sensors that go
// silent, duplicate escalations, malformed messages — the unattended-
// operation concerns the paper's introduction raises ("work in unattended
// environments over extended periods of time").

#include <memory>

#include <gtest/gtest.h>

#include "core/d3.h"
#include "core/mgdd.h"
#include "core/protocol.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "util/rng.h"

namespace sensord {
namespace {

class CountingObserver : public OutlierObserver {
 public:
  void OnOutlierDetected(const OutlierEvent& event) override {
    ++count;
    last = event;
  }
  int count = 0;
  OutlierEvent last;
};

D3Options SmallD3() {
  D3Options opts;
  opts.model.window_size = 500;
  opts.model.sample_size = 100;
  opts.outlier.radius = 0.02;
  opts.outlier.neighbor_threshold = 10.0;
  opts.min_observations = 200;
  return opts;
}

TEST(FailureInjectionTest, NodesTolerateUnknownMessageKinds) {
  Simulator sim;
  Rng rng(1);
  CountingObserver observer;
  auto layout = BuildGridHierarchy(2, 2);
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<D3LeafNode>(SmallD3(), rng.Split(),
                                              &observer);
        }
        D3Options opts = SmallD3();
        opts.model = LeaderModelConfig(SmallD3().model, 2, 0.5, spec.level);
        return std::make_unique<D3ParentNode>(opts, rng.Split(), &observer);
      });

  // Stray application-level kinds must be ignored by every node type.
  for (NodeId to : ids) {
    Message msg;
    msg.from = ids[0];
    msg.to = to;
    msg.kind = 200;  // unknown
    msg.payload = std::string("junk");
    sim.Send(std::move(msg));
  }
  sim.RunUntil(1.0);  // must not crash or emit events
  EXPECT_EQ(observer.count, 0);
}

TEST(FailureInjectionTest, SilentSensorDoesNotStallSiblings) {
  // Sensor 1 stops reporting mid-run; sensor 0's detection pipeline and
  // the parent's model keep operating on what still arrives.
  Simulator sim;
  Rng rng(2);
  CountingObserver observer;
  auto layout = BuildGridHierarchy(2, 2);
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<D3LeafNode>(SmallD3(), rng.Split(),
                                              &observer);
        }
        D3Options opts = SmallD3();
        opts.model = LeaderModelConfig(SmallD3().model, 2, 0.5, spec.level);
        opts.min_observations = 50;
        return std::make_unique<D3ParentNode>(opts, rng.Split(), &observer);
      });

  Rng values(3);
  double t = 0.0;
  for (int round = 0; round < 2000; ++round) {
    sim.DeliverReading(ids[0],
                       {Clamp(values.Gaussian(0.4, 0.01), 0.0, 1.0)});
    if (round < 600) {  // sensor 1 dies at round 600
      sim.DeliverReading(ids[1],
                         {Clamp(values.Gaussian(0.4, 0.01), 0.0, 1.0)});
    }
    t += 1.0;
    sim.RunUntil(t);
  }
  observer.count = 0;
  sim.DeliverReading(ids[0], {0.95});
  sim.RunUntil(t + 1.0);
  EXPECT_GE(observer.count, 1) << "survivor's detection must still work";
}

TEST(FailureInjectionTest, DuplicateOutlierReportsAreIdempotentChecks) {
  // A flaky link re-delivering the same escalation must only produce
  // repeated (harmless) re-checks, never corrupt parent state.
  Simulator sim;
  Rng rng(4);
  CountingObserver observer;
  auto layout = BuildGridHierarchy(2, 2);
  std::vector<NodeId> ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<D3LeafNode>(SmallD3(), rng.Split(),
                                              &observer);
        }
        D3Options opts = SmallD3();
        opts.model = LeaderModelConfig(SmallD3().model, 2, 0.5, spec.level);
        opts.min_observations = 50;
        return std::make_unique<D3ParentNode>(opts, rng.Split(), &observer);
      });
  Rng values(5);
  double t = 0.0;
  for (int round = 0; round < 1500; ++round) {
    for (int leaf = 0; leaf < 2; ++leaf) {
      sim.DeliverReading(ids[static_cast<size_t>(leaf)],
                         {Clamp(values.Gaussian(0.4, 0.01), 0.0, 1.0)});
    }
    t += 1.0;
    sim.RunUntil(t);
  }
  observer.count = 0;
  OutlierReportPayload report;
  report.value = {0.95};
  report.origin_level = 1;
  report.source_leaf = ids[0];
  report.source_seq = 42;
  const NodeId parent = sim.node(ids[0]).parent();
  for (int dup = 0; dup < 3; ++dup) {
    Message msg;
    msg.from = ids[0];
    msg.to = parent;
    msg.kind = kMsgOutlierReport;
    msg.size_numbers = 3;
    msg.payload = report;
    sim.Send(std::move(msg));
  }
  sim.RunUntil(t + 1.0);
  // Three duplicate checks, three identical verdicts; the parent model's
  // sample stream is untouched by reports.
  EXPECT_EQ(observer.count, 3);
  EXPECT_EQ(observer.last.source_seq, 42u);
}

TEST(FailureInjectionTest, MgddSurvivesTotalUpdateLossThenRecovers) {
  // All downward updates are lost for a long stretch (simulated by a
  // 100%-loss radio), then the link heals. Replicas must resume tracking
  // the root because every future slot diff retransmits current content
  // for the slots that keep changing.
  Simulator sim;  // starts healthy
  Rng rng(6);
  MgddOptions opts;
  opts.model.window_size = 400;
  opts.model.sample_size = 64;
  opts.min_observations = UINT64_MAX;
  auto layout = BuildGridHierarchy(2, 2);
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<MgddLeafNode>(opts, rng.Split(), nullptr);
        }
        MgddOptions internal = opts;
        internal.model = LeaderModelConfig(opts.model, 2, 0.5, spec.level);
        return std::make_unique<MgddInternalNode>(internal, rng.Split());
      });
  Rng values(7);
  double t = 0.0;
  auto run_rounds = [&](int n) {
    for (int round = 0; round < n; ++round) {
      for (int leaf = 0; leaf < 2; ++leaf) {
        sim.DeliverReading(ids[static_cast<size_t>(leaf)],
                           {values.UniformDouble(0.3, 0.5)});
      }
      t += 1.0;
      sim.RunUntil(t);
    }
  };
  run_rounds(1000);
  const auto& leaf = static_cast<const MgddLeafNode&>(sim.node(ids[0]));
  const uint64_t updates_healthy = leaf.global_updates_received();
  EXPECT_GT(updates_healthy, 0u);
  LinkFault dead;
  dead.drop_probability = 1.0;
  sim.faults().SetDefaultLinkFault(dead);
  run_rounds(1);  // frames already in flight still land
  const uint64_t updates_cut = leaf.global_updates_received();
  run_rounds(500);
  const uint64_t updates_during_loss = leaf.global_updates_received();
  EXPECT_EQ(updates_during_loss, updates_cut)
      << "a 100%-loss radio delivers no update";
  sim.faults().SetDefaultLinkFault(LinkFault{});
  run_rounds(1000);
  const uint64_t updates_later = leaf.global_updates_received();
  EXPECT_GT(updates_later, updates_during_loss)
      << "updates must resume once the link heals";
}

}  // namespace
}  // namespace sensord
