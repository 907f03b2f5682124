#include "core/mgdd.h"

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/d3.h"  // LeaderModelConfig
#include "core/protocol.h"
#include "core/snapshot.h"
#include "stats/bandwidth.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace sensord {
namespace {

class CollectingObserver : public OutlierObserver {
 public:
  void OnOutlierDetected(const OutlierEvent& event) override {
    events.push_back(event);
  }
  std::vector<OutlierEvent> events;
};

MgddOptions TestOptions() {
  MgddOptions opts;
  opts.model.dimensions = 1;
  opts.model.window_size = 500;
  opts.model.sample_size = 100;
  opts.mdef.sampling_radius = 0.08;
  opts.mdef.counting_radius = 0.01;
  opts.mdef.k_sigma = 3.0;
  opts.sample_fraction = 0.5;
  opts.min_observations = 200;
  return opts;
}

struct MgddFixture {
  explicit MgddFixture(const MgddOptions& opts, size_t leaves = 4,
                       size_t fanout = 2, uint64_t seed = 1)
      : layout(*BuildGridHierarchy(leaves, fanout)), rng(seed) {
    ids = sim.Instantiate(
        layout, [&](int, const HierarchyNodeSpec& spec)
                    -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<MgddLeafNode>(opts, rng.Split(),
                                                  &observer);
          }
          MgddOptions internal = opts;
          internal.model = LeaderModelConfig(
              opts.model, fanout, opts.sample_fraction, spec.level);
          return std::make_unique<MgddInternalNode>(internal, rng.Split());
        });
    num_leaves = leaves;
  }

  // Delivers one round of readings (one per leaf) and flushes messages.
  void Round(const std::vector<Point>& readings) {
    for (size_t i = 0; i < num_leaves; ++i) {
      sim.DeliverReading(ids[i], readings[i]);
    }
    t += 1.0;
    sim.RunUntil(t);
  }

  HierarchyLayout layout;
  Simulator sim;
  CollectingObserver observer;
  Rng rng;
  std::vector<NodeId> ids;
  size_t num_leaves;
  double t = 0.0;
};

TEST(MgddTest, GlobalModelPropagatesToLeaves) {
  MgddFixture fx(TestOptions());
  Rng values(2);
  for (int round = 0; round < 1500; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      readings.push_back({Clamp(values.Gaussian(0.4, 0.02), 0.0, 1.0)});
    }
    fx.Round(readings);
  }
  EXPECT_GT(fx.sim.stats().MessagesOfKind(kMsgGlobalModelUpdate), 0u);
  for (size_t i = 0; i < fx.num_leaves; ++i) {
    const auto& leaf = static_cast<const MgddLeafNode&>(fx.sim.node(fx.ids[i]));
    EXPECT_TRUE(leaf.HasGlobalModel()) << "leaf " << i;
    EXPECT_GT(leaf.global_updates_received(), 0u);
  }
}

TEST(MgddTest, ReplicaMatchesRootSample) {
  // With kEveryChange updates, after the messages drain, each leaf's global
  // estimator must be built from exactly the root's current sample.
  MgddFixture fx(TestOptions());
  Rng values(3);
  for (int round = 0; round < 1200; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      readings.push_back({values.UniformDouble(0.3, 0.5)});
    }
    fx.Round(readings);
  }
  const auto& root = static_cast<const MgddInternalNode&>(
      fx.sim.node(fx.ids.back()));
  std::vector<Point> root_sample = root.model().sample().Snapshot();
  std::sort(root_sample.begin(), root_sample.end());

  const auto& leaf = static_cast<const MgddLeafNode&>(fx.sim.node(fx.ids[0]));
  ASSERT_TRUE(leaf.HasGlobalModel());
  std::vector<Point> replica = leaf.GlobalEstimator().sample().ToPoints();
  std::sort(replica.begin(), replica.end());
  EXPECT_EQ(replica, root_sample);
}

TEST(MgddTest, DetectsDeviationAgainstGlobalModel) {
  // Bimodal data with an empty gap: a value inside the gap has a near-empty
  // counting neighbourhood while its sampling neighbourhood is dense and
  // homogeneous — the textbook MDEF outlier (high MDEF, small sigma_MDEF).
  // Scott's-rule bandwidths over bimodal data are wide and partially smear
  // the gap, so the deviation threshold is set below the paper's k_sigma=3
  // default (see EXPERIMENTS.md on MDEF sensitivity under smoothing).
  MgddOptions opts = TestOptions();
  opts.mdef.k_sigma = 0.5;
  MgddFixture fx(opts);
  Rng values(4);
  for (int round = 0; round < 1500; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      readings.push_back({values.Bernoulli(0.5)
                              ? values.UniformDouble(0.30, 0.42)
                              : values.UniformDouble(0.50, 0.62)});
    }
    fx.Round(readings);
  }
  fx.observer.events.clear();

  std::vector<Point> readings(fx.num_leaves, Point{0.38});
  readings[0] = {0.46};  // dead centre of the gap
  fx.Round(readings);

  bool flagged = false;
  for (const auto& e : fx.observer.events) {
    if (e.detector == DetectorKind::kMgdd && e.value[0] == 0.46) {
      flagged = true;
      EXPECT_EQ(e.level, 1);  // MGDD detects only at leaves
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(MgddTest, OnlyLeavesDetect) {
  MgddFixture fx(TestOptions());
  Rng values(5);
  for (int round = 0; round < 1500; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      readings.push_back(
          {values.Bernoulli(0.01)
               ? values.UniformDouble(0.6, 1.0)  // occasional deviations
               : values.UniformDouble(0.30, 0.45)});
    }
    fx.Round(readings);
  }
  for (const auto& e : fx.observer.events) {
    EXPECT_EQ(e.level, 1);
    EXPECT_EQ(e.detector, DetectorKind::kMgdd);
  }
}

TEST(MgddTest, OnModelChangeModeSendsFewerUpdates) {
  MgddOptions every = TestOptions();
  every.update_mode = GlobalUpdateMode::kEveryChange;
  MgddOptions lazy = TestOptions();
  lazy.update_mode = GlobalUpdateMode::kOnModelChange;
  lazy.push_js_threshold = 0.05;

  uint64_t every_updates = 0, lazy_updates = 0;
  for (int which = 0; which < 2; ++which) {
    MgddFixture fx(which == 0 ? every : lazy, 4, 2, 42);
    Rng values(6);
    // Stationary distribution: the lazy mode should push rarely.
    for (int round = 0; round < 1200; ++round) {
      std::vector<Point> readings;
      for (size_t i = 0; i < fx.num_leaves; ++i) {
        readings.push_back({values.UniformDouble(0.3, 0.5)});
      }
      fx.Round(readings);
    }
    const uint64_t updates =
        fx.sim.stats().MessagesOfKind(kMsgGlobalModelUpdate);
    (which == 0 ? every_updates : lazy_updates) = updates;
  }
  EXPECT_GT(every_updates, 0u);
  EXPECT_LT(lazy_updates, every_updates / 2)
      << "stationary stream should suppress most model pushes";
}

TEST(MgddTest, RobustBandwidthsPropagateToReplicas) {
  // With robust_bandwidth set, the root broadcasts IQR-tempered spreads,
  // and the leaf replica's bandwidths must match what the root's own
  // estimator would use.
  MgddOptions opts = TestOptions();
  opts.model.robust_bandwidth = true;
  MgddFixture fx(opts);
  Rng values(20);
  for (int round = 0; round < 1200; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      // Spiky: tight bulk + rare excursions, where robust != plain sigma.
      const double v = values.Bernoulli(0.05)
                           ? values.UniformDouble(0.7, 0.9)
                           : values.Gaussian(0.4, 0.005);
      readings.push_back({Clamp(v, 0.0, 1.0)});
    }
    fx.Round(readings);
  }
  const auto& root = static_cast<const MgddInternalNode&>(
      fx.sim.node(fx.ids.back()));
  const auto& leaf = static_cast<const MgddLeafNode&>(fx.sim.node(fx.ids[0]));
  ASSERT_TRUE(leaf.HasGlobalModel());

  const auto root_spreads = root.model().BandwidthSpreads();
  const auto root_sigmas = root.model().StdDevs();
  // The robust spread must actually differ on this workload ...
  EXPECT_LT(root_spreads[0], 0.8 * root_sigmas[0]);
  // ... and the replica's bandwidth must be derived from it, not from the
  // plain sigma.
  const double replica_bw = leaf.GlobalEstimator().bandwidths()[0];
  const double expected_bw = ScottBandwidth(
      root_spreads[0], leaf.GlobalEstimator().sample_size(), 1);
  EXPECT_NEAR(replica_bw, expected_bw, 0.25 * expected_bw);
}

TEST(MgddTest, NoDetectionWithoutGlobalModel) {
  // A leaf with no parent (single-node hierarchy) never receives a global
  // model and therefore never flags.
  auto opts = TestOptions();
  MgddFixture fx(opts, 1, 2);
  Rng values(7);
  for (int round = 0; round < 1000; ++round) {
    fx.Round({{values.UniformDouble(0.3, 0.5)}});
  }
  fx.Round({{0.95}});
  EXPECT_TRUE(fx.observer.events.empty());
}

// Hands `payload` to leaf `leaf` as a global-model update from the root.
void DeliverUpdate(MgddFixture& fx, size_t leaf,
                   GlobalModelUpdatePayload payload) {
  Message msg;
  msg.from = fx.ids.back();
  msg.to = fx.ids[leaf];
  msg.kind = kMsgGlobalModelUpdate;
  msg.payload = std::shared_ptr<const GlobalModelUpdatePayload>(
      std::make_shared<GlobalModelUpdatePayload>(std::move(payload)));
  fx.sim.node(fx.ids[leaf]).HandleMessage(msg);
}

// Options for a 2-d leaf whose only global updates are the crafted ones: with
// f = 0 no sample reaches the root, so it never pushes.
MgddOptions CraftedUpdateOptions() {
  MgddOptions opts = TestOptions();
  opts.model.dimensions = 2;
  opts.sample_fraction = 0.0;
  return opts;
}

// Feeds leaf 0 enough readings to pass min_observations and test each one.
void FeedLeaf(MgddFixture& fx, int readings) {
  Rng values(31);
  for (int i = 0; i < readings; ++i) {
    fx.sim.DeliverReading(fx.ids[0], {values.UniformDouble(0.3, 0.5),
                                      values.UniformDouble(0.3, 0.5)});
    fx.t += 1.0;
    fx.sim.RunUntil(fx.t);
  }
}

TEST(MgddTest, UpdateWithNoValidSlotLeavesNoGlobalModel) {
  // Neither an empty update nor one whose slots are all out of range gives
  // the replica a slot, so the leaf must not try to build an estimator.
  const MgddOptions opts = CraftedUpdateOptions();
  for (int variant = 0; variant < 2; ++variant) {
    MgddFixture fx(opts);
    GlobalModelUpdatePayload update;
    update.stddevs = {0.1, 0.1};
    if (variant == 1) {
      update.updates.push_back(GlobalSlotUpdate{
          static_cast<uint32_t>(opts.model.sample_size), {0.4, 0.4}});
    }
    DeliverUpdate(fx, 0, std::move(update));
    const auto& leaf =
        static_cast<const MgddLeafNode&>(fx.sim.node(fx.ids[0]));
    EXPECT_FALSE(leaf.HasGlobalModel()) << "variant " << variant;
    FeedLeaf(fx, 300);
    EXPECT_TRUE(fx.observer.events.empty()) << "variant " << variant;
  }
}

TEST(MgddTest, UpdateOfWrongDimensionalityIsDropped) {
  // An update the replica cannot hold is dropped whole and counted, and a
  // well-formed update afterwards arms the detector. Variants: a sigma
  // vector of the wrong size, a slot point of the wrong size, a NaN sigma,
  // a negative sigma, and an infinite slot coordinate (which has no place
  // in the canonical order).
  const MgddOptions opts = CraftedUpdateOptions();
  obs::Counter* malformed = obs::MetricsRegistry::Global().GetCounter(
      "core.mgdd.leaf.updates_malformed");
  const double inf = std::numeric_limits<double>::infinity();
  for (int variant = 0; variant < 5; ++variant) {
    MgddFixture fx(opts);
    GlobalModelUpdatePayload bad;
    bad.stddevs = {0.1, 0.1};
    if (variant == 0) bad.stddevs = {0.1};
    if (variant == 2) bad.stddevs[1] = std::nan("");
    if (variant == 3) bad.stddevs[0] = -0.1;
    bad.updates.push_back(GlobalSlotUpdate{0, {0.4, 0.4}});
    Point second = {0.41, 0.4};
    if (variant == 1) second = {0.4};
    if (variant == 4) second[1] = inf;
    bad.updates.push_back(GlobalSlotUpdate{1, second});
    const uint64_t before = malformed->value();
    DeliverUpdate(fx, 0, std::move(bad));
    EXPECT_EQ(malformed->value(), before + 1) << "variant " << variant;
    const auto& leaf =
        static_cast<const MgddLeafNode&>(fx.sim.node(fx.ids[0]));
    EXPECT_FALSE(leaf.HasGlobalModel()) << "variant " << variant;
    EXPECT_EQ(leaf.global_updates_received(), 0u);
    FeedLeaf(fx, 300);  // must not abort

    GlobalModelUpdatePayload good;
    good.stddevs = {0.1, 0.1};
    for (uint32_t slot = 0; slot < 50; ++slot) {
      good.updates.push_back(
          GlobalSlotUpdate{slot, {0.3 + 0.004 * slot, 0.5 - 0.004 * slot}});
    }
    DeliverUpdate(fx, 0, std::move(good));
    EXPECT_TRUE(leaf.HasGlobalModel());
    EXPECT_EQ(leaf.GlobalEstimator().sample_size(), 50u);
    FeedLeaf(fx, 10);
  }
}

// The MGDD leaf checkpoint's payload version (kMgddLeafSnapshotVersion in
// core/mgdd.cc); each restore test below first restores a well-formed
// checkpoint, so a version bump fails loudly there.
constexpr uint32_t kLeafSnapshotVersion = 3;

// A checksummed leaf checkpoint over a fresh local model of `opts` whose
// replica is `slots` (nullopt: a slot no update has filled) and `stddevs`.
std::vector<uint8_t> LeafCheckpoint(
    const MgddOptions& opts, const std::vector<std::optional<Point>>& slots,
    const std::vector<double>& stddevs) {
  SnapshotWriter writer;
  DensityModel(opts.model, Rng(1)).Serialize(&writer);
  writer.PutRng(Rng(2));
  writer.PutU32(static_cast<uint32_t>(slots.size()));
  for (const std::optional<Point>& slot : slots) {
    writer.PutBool(slot.has_value());
    writer.PutPoint(slot.value_or(Point{}));
  }
  writer.PutDoubles(stddevs);
  writer.PutU64(/*replica_version=*/1);
  writer.PutU64(/*updates_received=*/1);
  writer.PutDouble(/*last_update_time=*/0.0);
  return std::move(writer).Finish(kLeafSnapshotVersion);
}

// The full slot table of a 2-d leaf: every slot valid.
std::vector<std::optional<Point>> FullReplica(const MgddOptions& opts) {
  std::vector<std::optional<Point>> slots;
  for (size_t i = 0; i < opts.model.sample_size; ++i) {
    const double step = 0.002 * static_cast<double>(i);
    slots.push_back(Point{0.3 + step, 0.5 - step});
  }
  return slots;
}

// Restores `bytes` into leaf 0 of a fresh fixture after checking that the
// well-formed FullReplica checkpoint restores; returns the bad restore's
// result, and checks the refused leaf holds no replica and keeps running.
bool RestoreIntoLeaf(const MgddOptions& opts,
                     const std::vector<uint8_t>& bytes) {
  MgddFixture fx(opts);
  auto& leaf = static_cast<MgddLeafNode&>(fx.sim.node(fx.ids[0]));
  EXPECT_TRUE(leaf.RestoreState(
      LeafCheckpoint(opts, FullReplica(opts), {0.1, 0.1})));
  EXPECT_EQ(leaf.GlobalEstimator().sample_size(), opts.model.sample_size);
  const bool restored = leaf.RestoreState(bytes);
  if (!restored) {
    EXPECT_FALSE(leaf.HasGlobalModel());
    FeedLeaf(fx, 300);  // must not abort
  }
  return restored;
}

TEST(MgddTest, RestoreRejectsSlotCountOtherThanSampleSize) {
  // A replica with more or fewer slots than the root has chains would
  // ignore the slots beyond it forever. No slots at all is a leaf that
  // never heard from the root.
  const MgddOptions opts = CraftedUpdateOptions();
  std::vector<std::optional<Point>> slots = FullReplica(opts);
  slots.pop_back();
  EXPECT_FALSE(RestoreIntoLeaf(opts, LeafCheckpoint(opts, slots, {0.1, 0.1})));
  slots = FullReplica(opts);
  slots.push_back(Point{0.4, 0.4});
  EXPECT_FALSE(RestoreIntoLeaf(opts, LeafCheckpoint(opts, slots, {0.1, 0.1})));
  EXPECT_TRUE(RestoreIntoLeaf(opts, LeafCheckpoint(opts, {}, {})));
}

TEST(MgddTest, RestoreRejectsSlotThatDoesNotFitTheLeaf) {
  // A valid slot needs d finite coordinates; an invalid one may hold
  // anything, since it is never read.
  const MgddOptions opts = CraftedUpdateOptions();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point& bad : {Point{0.4}, Point{0.4, 0.4, 0.4},
                           Point{std::nan(""), 0.4}, Point{0.4, -inf}}) {
    std::vector<std::optional<Point>> slots = FullReplica(opts);
    slots[7] = bad;
    EXPECT_FALSE(
        RestoreIntoLeaf(opts, LeafCheckpoint(opts, slots, {0.1, 0.1})))
        << "slot of size " << bad.size();
  }
  std::vector<std::optional<Point>> slots = FullReplica(opts);
  slots[7] = std::nullopt;
  EXPECT_TRUE(RestoreIntoLeaf(opts, LeafCheckpoint(opts, slots, {0.1, 0.1})));
}

TEST(MgddTest, RestoreRejectsSigmasOfWrongSize) {
  const MgddOptions opts = CraftedUpdateOptions();
  for (const std::vector<double>& sigmas :
       {std::vector<double>{}, std::vector<double>{0.1},
        std::vector<double>{0.1, 0.1, 0.1}}) {
    EXPECT_FALSE(
        RestoreIntoLeaf(opts, LeafCheckpoint(opts, FullReplica(opts), sigmas)))
        << sigmas.size() << " sigmas";
  }
  // An empty replica carries no sigmas either.
  EXPECT_FALSE(RestoreIntoLeaf(opts, LeafCheckpoint(opts, {}, {0.1, 0.1})));
}

TEST(MgddTest, RestoreRejectsNegativeOrNonFiniteSigma) {
  const MgddOptions opts = CraftedUpdateOptions();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double sigma : {-0.1, std::nan(""), inf}) {
    EXPECT_FALSE(RestoreIntoLeaf(
        opts, LeafCheckpoint(opts, FullReplica(opts), {0.1, sigma})))
        << "sigma " << sigma;
  }
  // A zero sigma is a constant stream's; Scott's rule floors it.
  EXPECT_TRUE(RestoreIntoLeaf(
      opts, LeafCheckpoint(opts, FullReplica(opts), {0.0, 0.1})));
}

}  // namespace
}  // namespace sensord
