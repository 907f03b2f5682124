#include "core/query_processing.h"

#include <cmath>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "core/protocol.h"
#include "net/hierarchy.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace sensord {
namespace {

DensityModelConfig LeafConfig() {
  DensityModelConfig cfg;
  cfg.window_size = 1000;
  cfg.sample_size = 150;
  return cfg;
}

struct QueryFixture {
  explicit QueryFixture(size_t leaves, uint64_t seed = 1)
      : layout(*BuildGridHierarchy(leaves, 4)), rng(seed) {
    ids = sim.Instantiate(
        layout, [&](int, const HierarchyNodeSpec& spec)
                    -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<QuerySensorNode>(LeafConfig(),
                                                     rng.Split());
          }
          return std::make_unique<QueryAggregatorNode>();
        });
    num_leaves = leaves;
  }

  // Streams `rounds` readings into every leaf from `source(leaf)`.
  template <typename Fn>
  void Feed(size_t rounds, Fn source) {
    for (size_t r = 0; r < rounds; ++r) {
      for (size_t s = 0; s < num_leaves; ++s) {
        sim.DeliverReading(ids[s], source(s));
      }
    }
    sim.RunUntil(sim.Now() + 1.0);
  }

  QueryAggregatorNode& Root() {
    return static_cast<QueryAggregatorNode&>(sim.node(ids.back()));
  }

  // Runs a query to completion and returns the answer.
  QueryAnswer Ask(const AggregateQuery& query) {
    std::optional<QueryAnswer> out;
    Root().InjectQuery(query, [&](const QueryAnswer& a) { out = a; });
    sim.RunUntil(sim.Now() + 5.0);
    EXPECT_TRUE(out.has_value());
    return out.value_or(QueryAnswer{});
  }

  HierarchyLayout layout;
  Simulator sim;
  Rng rng;
  std::vector<NodeId> ids;
  size_t num_leaves = 0;
};

TEST(AnswerFromModelTest, UnwarmedModelAnswersZero) {
  DensityModel model(LeafConfig(), Rng(2));
  AggregateQuery q;
  q.lo = {0.0};
  q.hi = {1.0};
  const auto part = AnswerFromModel(model, q);
  EXPECT_DOUBLE_EQ(part.count, 0.0);
  EXPECT_EQ(part.leaves, 1u);
}

// A query from the network that the model cannot answer — a box of the
// wrong dimensionality, an average over a missing axis, a NaN bound — gets
// the unwarmed answer instead of reading past the box, aborting, or
// turning the aggregate into NaN.
TEST(AnswerFromModelTest, MalformedQueryAnswersZero) {
  DensityModelConfig cfg = LeafConfig();
  cfg.dimensions = 2;
  DensityModel model(cfg, Rng(5));
  Rng values(6);
  for (int i = 0; i < 2000; ++i) {
    model.Observe({values.Gaussian(0.4, 0.05), values.Gaussian(0.6, 0.05)});
  }
  AggregateQuery good;
  good.kind = AggregateQuery::Kind::kAverage;
  good.lo = {0.2, 0.4};
  good.hi = {0.6, 0.8};
  good.average_dim = 1;
  const auto answered = AnswerFromModel(model, good);
  EXPECT_GT(answered.count, 0.0);
  EXPECT_GT(answered.weighted_sum, 0.0);

  AggregateQuery short_box = good;
  short_box.kind = AggregateQuery::Kind::kCount;
  short_box.lo = {0.2};
  short_box.hi = {0.6};
  AggregateQuery missing_axis = good;
  missing_axis.average_dim = 2;
  AggregateQuery nan_bound = good;
  nan_bound.hi[0] = std::numeric_limits<double>::quiet_NaN();
  for (const AggregateQuery& q : {short_box, missing_axis, nan_bound}) {
    const auto part = AnswerFromModel(model, q);
    EXPECT_EQ(part.count, 0.0);
    EXPECT_EQ(part.weighted_sum, 0.0);
    EXPECT_EQ(part.window_total, 0.0);
    EXPECT_EQ(part.leaves, 1u);
  }
}

TEST(AnswerFromModelTest, CountMatchesModel) {
  DensityModel model(LeafConfig(), Rng(3));
  Rng values(4);
  for (int i = 0; i < 2000; ++i) {
    model.Observe({values.Gaussian(0.4, 0.02)});
  }
  AggregateQuery q;
  q.lo = {0.3};
  q.hi = {0.5};
  const auto part = AnswerFromModel(model, q);
  EXPECT_NEAR(part.count, 1000.0, 50.0);  // nearly all of the window
  EXPECT_DOUBLE_EQ(part.window_total, 1000.0);
}

// An average over a box with an infinite bound slices only the model's
// support, so it answers like the finite box around the data instead of 0.
TEST(AnswerFromModelTest, AverageOverInfiniteBoxMatchesFiniteBox) {
  DensityModel model(LeafConfig(), Rng(5));
  Rng values(6);
  for (int i = 0; i < 2000; ++i) {
    model.Observe({values.Gaussian(0.4, 0.02)});
  }
  const auto average = [&](double lo, double hi) {
    AggregateQuery q;
    q.kind = AggregateQuery::Kind::kAverage;
    q.lo = {lo};
    q.hi = {hi};
    return FinalizeAnswer(q, AnswerFromModel(model, q)).value;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double finite = average(0.0, 1.0);
  EXPECT_NEAR(finite, 0.4, 0.01);
  EXPECT_NEAR(average(-inf, inf), finite, 1e-3);
  EXPECT_NEAR(average(0.0, inf), finite, 1e-3);
  EXPECT_NEAR(average(-inf, 1.0), finite, 1e-3);
}

TEST(FinalizeAnswerTest, Kinds) {
  AggregateQuery q;
  QueryPartialPayload acc;
  acc.count = 50.0;
  acc.window_total = 200.0;
  acc.weighted_sum = 50.0 * 0.42;
  acc.leaves = 4;

  q.kind = AggregateQuery::Kind::kCount;
  EXPECT_DOUBLE_EQ(FinalizeAnswer(q, acc).value, 50.0);
  q.kind = AggregateQuery::Kind::kFraction;
  EXPECT_DOUBLE_EQ(FinalizeAnswer(q, acc).value, 0.25);
  q.kind = AggregateQuery::Kind::kAverage;
  EXPECT_NEAR(FinalizeAnswer(q, acc).value, 0.42, 1e-12);
  EXPECT_EQ(FinalizeAnswer(q, acc).leaves_reporting, 4u);
}

TEST(QueryNetworkTest, CountAggregatesAcrossLeaves) {
  QueryFixture fx(8);
  Rng values(5);
  fx.Feed(1500, [&](size_t) {
    return Point{Clamp(values.Gaussian(0.4, 0.02), 0.0, 1.0)};
  });

  AggregateQuery q;
  q.id = 1;
  q.kind = AggregateQuery::Kind::kCount;
  q.lo = {0.3};
  q.hi = {0.5};
  const QueryAnswer a = fx.Ask(q);
  EXPECT_EQ(a.leaves_reporting, 8u);
  // 8 leaves x window 1000, essentially all mass inside the box.
  EXPECT_NEAR(a.value, 8000.0, 400.0);
}

// Raw readings pass the ingest firewall before the leaf's model sees them:
// a NaN or an infinity is counted in ingest.rejected.nonfinite and dropped,
// so it never reaches the model's sorted sample, and queries stay finite.
TEST(QueryNetworkTest, NonFiniteReadingsAreRejectedBeforeTheModel) {
  QueryFixture fx(4);
  obs::Counter* rejected = obs::MetricsRegistry::Global().GetCounter(
      "ingest.rejected.nonfinite");
  const uint64_t rejected_before = rejected->value();
  Rng values(9);
  size_t round = 0;
  fx.Feed(1200, [&](size_t s) {
    if (s == 0 && round % 100 == 0) {
      return Point{round % 200 == 0
                       ? std::numeric_limits<double>::quiet_NaN()
                       : std::numeric_limits<double>::infinity()};
    }
    if (s + 1 == 4) ++round;
    return Point{Clamp(values.Gaussian(0.4, 0.02), 0.0, 1.0)};
  });

  const auto& leaf =
      static_cast<const QuerySensorNode&>(fx.sim.node(fx.ids[0]));
  EXPECT_EQ(leaf.model().total_seen(), 1200u - 12u);
  EXPECT_EQ(rejected->value() - rejected_before, 12u);

  AggregateQuery q;
  q.id = 1;
  q.kind = AggregateQuery::Kind::kCount;
  q.lo = {0.3};
  q.hi = {0.5};
  const QueryAnswer a = fx.Ask(q);
  EXPECT_EQ(a.leaves_reporting, 4u);
  EXPECT_TRUE(std::isfinite(a.value));
  EXPECT_NEAR(a.value, 4000.0, 200.0);
}

TEST(QueryNetworkTest, FractionQuery) {
  QueryFixture fx(4);
  Rng values(6);
  // Half the leaves read near 0.2, half near 0.8.
  fx.Feed(1500, [&](size_t s) {
    const double mean = s < 2 ? 0.2 : 0.8;
    return Point{Clamp(values.Gaussian(mean, 0.02), 0.0, 1.0)};
  });
  AggregateQuery q;
  q.id = 2;
  q.kind = AggregateQuery::Kind::kFraction;
  q.lo = {0.0};
  q.hi = {0.5};
  const QueryAnswer a = fx.Ask(q);
  EXPECT_NEAR(a.value, 0.5, 0.05);
}

TEST(QueryNetworkTest, AverageQuery) {
  QueryFixture fx(4);
  Rng values(7);
  fx.Feed(1500, [&](size_t) {
    return Point{Clamp(values.Gaussian(0.6, 0.03), 0.0, 1.0)};
  });
  AggregateQuery q;
  q.id = 3;
  q.kind = AggregateQuery::Kind::kAverage;
  q.lo = {0.0};
  q.hi = {1.0};
  q.average_dim = 0;
  const QueryAnswer a = fx.Ask(q);
  EXPECT_NEAR(a.value, 0.6, 0.02);
}

TEST(QueryNetworkTest, RegionScopedQueryAtSubtreeLeader) {
  // Injecting at a level-2 leader answers for that cell only.
  QueryFixture fx(16);
  Rng values(8);
  fx.Feed(1500, [&](size_t s) {
    // Leaves 0-3 (the first cell) read high; everyone else low.
    const double mean = s < 4 ? 0.8 : 0.2;
    return Point{Clamp(values.Gaussian(mean, 0.02), 0.0, 1.0)};
  });

  // slots: 16 leaves then 4 level-2 leaders; leader of leaves 0-3 is the
  // first level-2 slot.
  const int leader_slot = fx.layout.slots_by_level[1][0];
  auto& leader = static_cast<QueryAggregatorNode&>(
      fx.sim.node(fx.ids[static_cast<size_t>(leader_slot)]));

  std::optional<QueryAnswer> out;
  AggregateQuery q;
  q.id = 4;
  q.kind = AggregateQuery::Kind::kAverage;
  q.lo = {0.0};
  q.hi = {1.0};
  leader.InjectQuery(q, [&](const QueryAnswer& a) { out = a; });
  fx.sim.RunUntil(fx.sim.Now() + 5.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->leaves_reporting, 4u);
  EXPECT_NEAR(out->value, 0.8, 0.03);  // only the high cell answered
}

TEST(QueryNetworkTest, DeadlineResolvesUnderPacketLoss) {
  // With a very lossy radio some partials vanish; the deadline must still
  // produce an answer with reduced support.
  auto layout = BuildGridHierarchy(8, 4);
  Simulator sim;
  LinkFault lossy;
  lossy.drop_probability = 0.4;
  sim.faults().SetDefaultLinkFault(lossy);
  Rng rng(9);
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<QuerySensorNode>(LeafConfig(),
                                                   rng.Split());
        }
        return std::make_unique<QueryAggregatorNode>(/*deadline=*/0.5);
      });
  Rng values(10);
  for (int r = 0; r < 1200; ++r) {
    for (size_t s = 0; s < 8; ++s) {
      sim.DeliverReading(ids[s], {values.Gaussian(0.5, 0.05)});
    }
  }
  auto& root = static_cast<QueryAggregatorNode&>(sim.node(ids.back()));
  std::optional<QueryAnswer> out;
  AggregateQuery q;
  q.id = 5;
  q.kind = AggregateQuery::Kind::kCount;
  q.lo = {0.0};
  q.hi = {1.0};
  root.InjectQuery(q, [&](const QueryAnswer& a) { out = a; });
  sim.RunUntil(sim.Now() + 5.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_LE(out->leaves_reporting, 8u);
}

TEST(QueryNetworkTest, ChildlessAggregatorResolvesImmediately) {
  Simulator sim;
  const NodeId id = sim.AddNode(std::make_unique<QueryAggregatorNode>());
  auto& agg = static_cast<QueryAggregatorNode&>(sim.node(id));
  std::optional<QueryAnswer> out;
  AggregateQuery q;
  q.id = 99;
  q.lo = {0.0};
  q.hi = {1.0};
  agg.InjectQuery(q, [&](const QueryAnswer& a) { out = a; });
  ASSERT_TRUE(out.has_value());  // resolved synchronously: no subtree
  EXPECT_EQ(out->leaves_reporting, 0u);
  EXPECT_DOUBLE_EQ(out->value, 0.0);
}

TEST(QueryNetworkTest, ConcurrentQueriesKeepApart) {
  QueryFixture fx(4);
  Rng values(11);
  fx.Feed(1500, [&](size_t) {
    return Point{Clamp(values.Gaussian(0.3, 0.02), 0.0, 1.0)};
  });
  std::optional<QueryAnswer> a1, a2;
  AggregateQuery q1, q2;
  q1.id = 10;
  q1.kind = AggregateQuery::Kind::kCount;
  q1.lo = {0.2};
  q1.hi = {0.4};
  q2.id = 11;
  q2.kind = AggregateQuery::Kind::kCount;
  q2.lo = {0.6};
  q2.hi = {0.9};
  fx.Root().InjectQuery(q1, [&](const QueryAnswer& a) { a1 = a; });
  fx.Root().InjectQuery(q2, [&](const QueryAnswer& a) { a2 = a; });
  fx.sim.RunUntil(fx.sim.Now() + 5.0);
  ASSERT_TRUE(a1.has_value());
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a1->id, 10u);
  EXPECT_EQ(a2->id, 11u);
  EXPECT_GT(a1->value, 3000.0);  // essentially the whole pooled window
  EXPECT_NEAR(a2->value, 0.0, 50.0);  // empty region
}

}  // namespace
}  // namespace sensord
