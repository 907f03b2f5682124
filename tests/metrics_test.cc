#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace sensord::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  EXPECT_EQ(g->value(), 0.0);
  g->Set(2.5);
  EXPECT_EQ(g->value(), 2.5);
  g->Add(-1.0);
  EXPECT_EQ(g->value(), 1.5);
}

TEST(RegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("sub.obj.metric");
  Counter* b = registry.GetCounter("sub.obj.metric");
  EXPECT_EQ(a, b);
  Histogram* h1 = registry.GetHistogram("sub.obj.hist", {1.0, 2.0});
  // Later registrations ignore the (different) boundaries.
  Histogram* h2 = registry.GetHistogram("sub.obj.hist", {5.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->boundaries().size(), 2u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RegistryDeathTest, KindCollisionIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry registry;
  registry.GetCounter("collide.name");
  EXPECT_DEATH(registry.GetGauge("collide.name"),
               "already registered as a counter");
  EXPECT_DEATH(registry.GetHistogram("collide.name", {1.0}),
               "already registered as a counter");
}

TEST(HistogramTest, ExponentialBoundariesLayout) {
  const std::vector<double> b = Histogram::ExponentialBoundaries(16, 2, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 16.0);
  EXPECT_EQ(b[1], 32.0);
  EXPECT_EQ(b[2], 64.0);
  EXPECT_EQ(b[3], 128.0);
}

TEST(HistogramTest, LinearBoundariesLayout) {
  const std::vector<double> b = Histogram::LinearBoundaries(1, 0.5, 3);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0], 1.0);
  EXPECT_EQ(b[1], 1.5);
  EXPECT_EQ(b[2], 2.0);
}

TEST(HistogramTest, RecordFillsBucketsAndOverflow) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.hist", {1.0, 10.0, 100.0});
  h->Record(0.5);    // bucket 0: (-inf, 1]
  h->Record(1.0);    // bucket 0 (boundary is inclusive)
  h->Record(5.0);    // bucket 1: (1, 10]
  h->Record(50.0);   // bucket 2: (10, 100]
  h->Record(500.0);  // overflow
  EXPECT_EQ(h->Count(), 5u);
  EXPECT_DOUBLE_EQ(h->Sum(), 556.5);
  EXPECT_EQ(h->BucketCount(0), 2u);
  EXPECT_EQ(h->BucketCount(1), 1u);
  EXPECT_EQ(h->BucketCount(2), 1u);
  EXPECT_EQ(h->BucketCount(3), 1u);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.empty", {1.0, 2.0});
  EXPECT_EQ(h->Quantile(0.5), 0.0);
}

TEST(HistogramTest, OverflowQuantileClampsToLastBoundary) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.clamp", {1.0, 2.0});
  h->Record(1e9);
  EXPECT_EQ(h->Quantile(0.99), 2.0);
}

// The acceptance contract: interpolated p50/p95/p99 agree with the exact
// quantiles of the recorded data to within one bucket width.
TEST(HistogramTest, QuantilesWithinOneBucketOfExact) {
  MetricsRegistry registry;
  // Unit-width buckets covering [0, 1000].
  Histogram* h = registry.GetHistogram(
      "test.quantiles", Histogram::LinearBoundaries(1.0, 1.0, 1000));
  const double kBucketWidth = 1.0;

  // A skewed deterministic distribution: x^2 spacing pushes mass low while
  // stretching the tail, which is what latency data looks like.
  std::vector<double> values;
  values.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    const double x = static_cast<double>(i) / 2000.0;
    values.push_back(1000.0 * x * x);
  }
  for (double v : values) h->Record(v);
  std::sort(values.begin(), values.end());

  for (double q : {0.50, 0.95, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size()))) - 1;
    const double exact = values[rank];
    const double estimated = h->Quantile(q);
    EXPECT_NEAR(estimated, exact, kBucketWidth)
        << "q=" << q << " exact=" << exact << " estimated=" << estimated;
  }
}

TEST(SnapshotTest, SortedByNameWithCorrectValues) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter")->Increment(7);
  registry.GetGauge("a.gauge")->Set(3.5);
  Histogram* h = registry.GetHistogram("c.hist", {10.0, 20.0});
  h->Record(5.0);
  h->Record(15.0);

  const std::vector<MetricSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.gauge");
  EXPECT_EQ(snap[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[0].gauge_value, 3.5);
  EXPECT_EQ(snap[1].name, "b.counter");
  EXPECT_EQ(snap[1].kind, MetricKind::kCounter);
  EXPECT_EQ(snap[1].counter_value, 7u);
  EXPECT_EQ(snap[2].name, "c.hist");
  EXPECT_EQ(snap[2].kind, MetricKind::kHistogram);
  EXPECT_EQ(snap[2].hist_count, 2u);
  EXPECT_DOUBLE_EQ(snap[2].hist_sum, 20.0);
}

TEST(RegistryTest, ResetValuesZeroesWithoutInvalidatingPointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("r.counter");
  Gauge* g = registry.GetGauge("r.gauge");
  Histogram* h = registry.GetHistogram("r.hist", {1.0});
  c->Increment(5);
  g->Set(5.0);
  h->Record(0.5);
  registry.ResetValues();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0.0);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(h->Sum(), 0.0);
  // Same pointers still registered.
  EXPECT_EQ(registry.GetCounter("r.counter"), c);
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
}

TEST(RegistryTest, ResetForTestClearsTheGlobalRegistry) {
  Counter* c = MetricsRegistry::Global().GetCounter("g.reset.counter");
  c->Increment(9);
  MetricsRegistry::ResetForTest();
  EXPECT_EQ(c->value(), 0u);
  // Still the same registration: pointers survive the reset.
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("g.reset.counter"), c);
}

TEST(RegistryTest, ScopedMetricsResetRestoresACleanSlate) {
  Counter* c = MetricsRegistry::Global().GetCounter("g.scoped.counter");
  {
    const ScopedMetricsReset scoped_reset;
    EXPECT_EQ(c->value(), 0u);  // entry reset cleared any prior value
    c->Increment(4);
    EXPECT_EQ(c->value(), 4u);
  }
  EXPECT_EQ(c->value(), 0u);  // exit reset cleaned up after the scope
}

TEST(SnapshotTest, HistogramSnapshotCarriesBoundariesAndBuckets) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("s.hist", {10.0, 20.0});
  h->Record(5.0);
  h->Record(15.0);
  h->Record(15.5);
  h->Record(100.0);  // overflow
  const std::vector<MetricSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].hist_boundaries, (std::vector<double>{10.0, 20.0}));
  // One bucket per boundary plus the trailing overflow bucket.
  EXPECT_EQ(snap[0].hist_buckets, (std::vector<uint64_t>{1, 2, 1}));
}

TEST(StandardBoundariesTest, DetectionLatencyLayoutIsUsable) {
  const std::vector<double> b = DetectionLatencyBoundariesS();
  ASSERT_EQ(b.size(), 24u);
  EXPECT_DOUBLE_EQ(b.front(), 1e-4);  // sub-millisecond decisions resolve
  EXPECT_GE(b.back(), 100.0);         // multi-minute staleness still lands
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

TEST(StandardBoundariesTest, LatencyAndSizeLayoutsAreUsable) {
  const std::vector<double> lat = LatencyBoundariesNs();
  ASSERT_FALSE(lat.empty());
  EXPECT_EQ(lat.front(), 16.0);
  EXPECT_GE(lat.back(), 1e8);  // covers at least 100ms
  const std::vector<double> size = SizeBoundaries();
  ASSERT_FALSE(size.empty());
  EXPECT_EQ(size.front(), 1.0);
  EXPECT_GE(size.back(), 16384.0);
  EXPECT_TRUE(std::is_sorted(lat.begin(), lat.end()));
  EXPECT_TRUE(std::is_sorted(size.begin(), size.end()));
}

}  // namespace
}  // namespace sensord::obs
