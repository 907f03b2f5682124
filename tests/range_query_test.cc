#include "core/range_query.h"

#include <limits>

#include <gtest/gtest.h>

#include "stats/histogram.h"
#include "util/rng.h"

namespace sensord {
namespace {

KernelDensityEstimator MakeKde(Rng* rng, size_t n, double mean, double sd) {
  std::vector<Point> sample;
  for (size_t i = 0; i < n; ++i) {
    sample.push_back({Clamp(rng->Gaussian(mean, sd), 0.0, 1.0)});
  }
  auto kde = KernelDensityEstimator::CreateWithScottBandwidths(sample, {sd});
  EXPECT_TRUE(kde.ok());
  return std::move(kde).value();
}

TEST(RangeQueryTest, SelectivityAndCount) {
  Rng rng(1);
  const auto kde = MakeKde(&rng, 500, 0.5, 0.05);
  RangeQueryEngine engine(&kde, 10000.0);
  const double sel = engine.Selectivity({0.4}, {0.6});
  EXPECT_GT(sel, 0.9);
  EXPECT_NEAR(engine.Count({0.4}, {0.6}), sel * 10000.0, 1e-9);
}

TEST(RangeQueryTest, AverageOfSymmetricDistribution) {
  Rng rng(2);
  const auto kde = MakeKde(&rng, 2000, 0.5, 0.05);
  RangeQueryEngine engine(&kde, 1000.0);
  auto avg = engine.Average(0, {0.3}, {0.7});
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(*avg, 0.5, 0.01);
}

TEST(RangeQueryTest, AverageRespectsBoxRestriction) {
  Rng rng(3);
  const auto kde = MakeKde(&rng, 2000, 0.5, 0.05);
  RangeQueryEngine engine(&kde, 1000.0);
  // Conditioning on the right half shifts the conditional mean right.
  auto avg = engine.Average(0, {0.5}, {0.7});
  ASSERT_TRUE(avg.ok());
  EXPECT_GT(*avg, 0.5);
  EXPECT_LT(*avg, 0.6);
}

TEST(RangeQueryTest, AverageOfEmptyBoxIsNotFound) {
  Rng rng(4);
  const auto kde = MakeKde(&rng, 100, 0.2, 0.01);
  RangeQueryEngine engine(&kde, 1000.0);
  auto avg = engine.Average(0, {0.8}, {0.9});
  EXPECT_FALSE(avg.ok());
  EXPECT_EQ(avg.status().code(), Status::Code::kNotFound);
}

TEST(RangeQueryTest, DegenerateBoxRejected) {
  Rng rng(5);
  const auto kde = MakeKde(&rng, 100, 0.5, 0.05);
  RangeQueryEngine engine(&kde, 1000.0);
  EXPECT_FALSE(engine.Average(0, {0.5}, {0.5}).ok());
}

// An estimator that states no support cannot be sliced over an infinite
// bound. (A KDE states one: query_processing_test.cc averages over
// infinite boxes.)
TEST(RangeQueryTest, UnboundedAverageWithoutSupportRejected) {
  Rng rng(7);
  std::vector<Point> data;
  for (int i = 0; i < 200; ++i) data.push_back({rng.UniformDouble()});
  auto histogram = EquiDepthHistogram::Build(data, 16);
  ASSERT_TRUE(histogram.ok());
  RangeQueryEngine engine(&*histogram, 200.0);
  const double inf = std::numeric_limits<double>::infinity();
  const auto avg = engine.Average(0, {-inf}, {inf});
  EXPECT_FALSE(avg.ok());
  EXPECT_EQ(avg.status().code(), Status::Code::kInvalidArgument);
}

TEST(TemporalStoreTest, SelectsSnapshotsInInterval) {
  Rng rng(6);
  TemporalModelStore store(10);
  store.AddSnapshot(1.0, MakeKde(&rng, 300, 0.3, 0.03), 100.0);
  store.AddSnapshot(2.0, MakeKde(&rng, 300, 0.3, 0.03), 100.0);
  store.AddSnapshot(3.0, MakeKde(&rng, 300, 0.7, 0.03), 100.0);

  // Interval covering only the early snapshots: mass near 0.3.
  auto early = store.SelectivityOver(0.5, 2.5, {0.25}, {0.35});
  ASSERT_TRUE(early.ok());
  EXPECT_GT(*early, 0.5);

  auto late = store.SelectivityOver(2.5, 3.5, {0.25}, {0.35});
  ASSERT_TRUE(late.ok());
  EXPECT_LT(*late, 0.1);
}

TEST(TemporalStoreTest, EmptyIntervalIsNotFound) {
  Rng rng(7);
  TemporalModelStore store(4);
  store.AddSnapshot(1.0, MakeKde(&rng, 100, 0.5, 0.05), 100.0);
  EXPECT_FALSE(store.SelectivityOver(5.0, 6.0, {0.0}, {1.0}).ok());
}

TEST(TemporalStoreTest, CapacityEvictsOldest) {
  Rng rng(8);
  TemporalModelStore store(2);
  store.AddSnapshot(1.0, MakeKde(&rng, 100, 0.5, 0.05), 100.0);
  store.AddSnapshot(2.0, MakeKde(&rng, 100, 0.5, 0.05), 100.0);
  store.AddSnapshot(3.0, MakeKde(&rng, 100, 0.5, 0.05), 100.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.SelectivityOver(0.5, 1.5, {0.0}, {1.0}).ok());
  EXPECT_TRUE(store.SelectivityOver(1.5, 3.5, {0.0}, {1.0}).ok());
}

TEST(TemporalStoreTest, AverageOverTimeWindow) {
  // "Average temperature in region X during [t1, t2]": distribution moves
  // from 0.3 to 0.7; querying the whole period blends them.
  Rng rng(9);
  TemporalModelStore store(10);
  store.AddSnapshot(1.0, MakeKde(&rng, 1000, 0.3, 0.02), 100.0);
  store.AddSnapshot(2.0, MakeKde(&rng, 1000, 0.7, 0.02), 100.0);
  auto avg = store.AverageOver(0.0, 3.0, 0, {0.0}, {1.0});
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(*avg, 0.5, 0.05);
  auto early = store.AverageOver(0.0, 1.5, 0, {0.0}, {1.0});
  ASSERT_TRUE(early.ok());
  EXPECT_NEAR(*early, 0.3, 0.02);
}

}  // namespace
}  // namespace sensord
