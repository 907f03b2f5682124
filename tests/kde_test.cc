#include "stats/kde.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/analytic.h"
#include "obs/metrics.h"
#include "stats/divergence.h"
#include "util/flat_points.h"
#include "util/rng.h"

namespace sensord {
namespace {

std::vector<Point> Sample1d(Rng* rng, size_t n, double mean, double sd) {
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back({Clamp(rng->Gaussian(mean, sd), 0.0, 1.0)});
  }
  return out;
}

TEST(KdeTest, CreateRejectsEmptySample) {
  auto kde = KernelDensityEstimator::Create(std::vector<Point>{}, {0.1});
  EXPECT_FALSE(kde.ok());
  EXPECT_EQ(kde.status().code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(KernelDensityEstimator::Create(FlatPoints(1), {0.1}).ok());
}

TEST(KdeTest, CreateRejectsDimensionMismatch) {
  auto kde = KernelDensityEstimator::Create({{0.5, 0.5}}, {0.1});
  EXPECT_FALSE(kde.ok());
}

TEST(KdeTest, CreateRejectsNonPositiveBandwidth) {
  EXPECT_FALSE(KernelDensityEstimator::Create({{0.5}}, {0.0}).ok());
  EXPECT_FALSE(KernelDensityEstimator::Create({{0.5}}, {-0.1}).ok());
}

TEST(KdeTest, TotalMassIsOneWhenAwayFromBoundary) {
  Rng rng(1);
  auto kde = KernelDensityEstimator::Create(Sample1d(&rng, 200, 0.5, 0.05),
                                            {0.02});
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->BoxProbability({-1.0}, {2.0}), 1.0, 1e-12);
  EXPECT_NEAR(kde->BoxProbability({0.0}, {1.0}), 1.0, 1e-9);
}

TEST(KdeTest, SingleKernelBoxProbability) {
  auto kde = KernelDensityEstimator::Create({{0.5}}, {0.1});
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->BoxProbability({0.4}, {0.6}), 1.0, 1e-12);
  EXPECT_NEAR(kde->BoxProbability({0.5}, {0.6}), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(kde->BoxProbability({0.7}, {0.9}), 0.0);
}

TEST(KdeTest, PdfMatchesKernelShape) {
  auto kde = KernelDensityEstimator::Create({{0.5}}, {0.1});
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->Pdf({0.5}), 7.5, 1e-12);  // (3/4)/0.1
  EXPECT_DOUBLE_EQ(kde->Pdf({0.65}), 0.0);
}

TEST(KdeTest, OneDimFastPathMatchesDirectSum) {
  Rng rng(2);
  const auto sample = Sample1d(&rng, 300, 0.4, 0.1);
  const double bw = 0.03;
  auto kde = KernelDensityEstimator::Create(sample, {bw});
  ASSERT_TRUE(kde.ok());

  EpanechnikovKernel kernel(bw);
  Rng queries(3);
  for (int i = 0; i < 200; ++i) {
    double a = queries.UniformDouble();
    double b = queries.UniformDouble();
    if (a > b) std::swap(a, b);
    double direct = 0.0;
    for (const Point& t : sample) direct += kernel.MassInInterval(t[0], a, b);
    direct /= static_cast<double>(sample.size());
    EXPECT_NEAR(kde->BoxProbability({a}, {b}), direct, 1e-12);
  }
}

TEST(KdeTest, TwoDimBoxProbabilityIsProductForSingleKernel) {
  auto kde = KernelDensityEstimator::Create({{0.5, 0.5}}, {0.1, 0.2});
  ASSERT_TRUE(kde.ok());
  EpanechnikovKernel kx(0.1), ky(0.2);
  const double expected =
      kx.MassInInterval(0.5, 0.45, 0.6) * ky.MassInInterval(0.5, 0.4, 0.55);
  EXPECT_NEAR(kde->BoxProbability({0.45, 0.4}, {0.6, 0.55}), expected,
              1e-12);
}

TEST(KdeTest, ConvergesToTrueDistribution) {
  // JS divergence to the generating Gaussian must shrink as |R| grows.
  const AnalyticDistribution truth =
      AnalyticDistribution::Gaussian1d(0.4, 0.05);
  Rng rng(4);
  double prev_js = 1.0;
  for (size_t n : {50u, 500u, 5000u}) {
    auto sample = Sample1d(&rng, n, 0.4, 0.05);
    auto kde =
        KernelDensityEstimator::CreateWithScottBandwidths(sample, {0.05});
    ASSERT_TRUE(kde.ok());
    auto js = JsDivergenceOnGrid(*kde, truth, 128);
    ASSERT_TRUE(js.ok());
    EXPECT_LT(*js, prev_js + 0.005) << "n=" << n;
    prev_js = *js;
  }
  EXPECT_LT(prev_js, 0.01);  // large-sample estimate is close to truth
}

TEST(KdeTest, SampleSortedFor1d) {
  auto kde = KernelDensityEstimator::Create({{0.9}, {0.1}, {0.5}}, {0.05});
  ASSERT_TRUE(kde.ok());
  const FlatPoints& s = kde->sample();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.At(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(s.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(s.At(2, 0), 0.9);
  EXPECT_EQ(kde->primary_axis(), 0u);
}

TEST(KdeTest, PrimaryAxisMaximizesSpreadBandwidthRatio) {
  // Axis 1 spreads 0.8 against bandwidth 0.1 (ratio 8); axis 0 spreads 0.2
  // against 0.1 (ratio 2) — the canonical order must sort by axis 1.
  auto kde = KernelDensityEstimator::Create(
      {{0.4, 0.9}, {0.5, 0.1}, {0.3, 0.5}}, {0.1, 0.1});
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->primary_axis(), 1u);
  const FlatPoints& s = kde->sample();
  EXPECT_DOUBLE_EQ(s.At(0, 1), 0.1);
  EXPECT_DOUBLE_EQ(s.At(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(s.At(2, 1), 0.9);
  // Rows travel whole: the axis-0 coordinates follow their axis-1 partner.
  EXPECT_DOUBLE_EQ(s.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(s.At(1, 0), 0.3);
  EXPECT_DOUBLE_EQ(s.At(2, 0), 0.4);
}

TEST(KdeTest, PrimaryAxisTieBreaksToSmallestIndex) {
  // Identical spread/bandwidth on both axes: axis 0 must win.
  auto kde = KernelDensityEstimator::Create(
      {{0.2, 0.2}, {0.8, 0.8}}, {0.1, 0.1});
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->primary_axis(), 0u);
}

TEST(KdeTest, CanonicalOrderBreaksTiesLexicographically) {
  // Equal primary-axis coordinates: the secondary coordinates decide.
  auto kde = KernelDensityEstimator::Create(
      {{0.5, 0.9, 0.5}, {0.5, 0.1, 0.5}, {0.1, 0.5, 0.5}}, {0.1, 0.3, 0.9});
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->primary_axis(), 0u);  // spread 0.4 / 0.1 beats the others
  const FlatPoints& s = kde->sample();
  EXPECT_DOUBLE_EQ(s.At(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(s.At(1, 1), 0.1);  // {0.5, 0.1, .} before {0.5, 0.9, .}
  EXPECT_DOUBLE_EQ(s.At(2, 1), 0.9);
}

TEST(KdeTest, CandidateRowsCoverExactlyTheSupportWindow) {
  auto kde = KernelDensityEstimator::Create(
      {{0.1, 0.5}, {0.3, 0.5}, {0.5, 0.5}, {0.7, 0.5}, {0.9, 0.5}},
      {0.05, 0.5});
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->primary_axis(), 0u);
  // [0.28, 0.52] ± 0.05 → rows with axis-0 coordinate in [0.23, 0.57].
  const auto [begin, end] = kde->CandidateRows(0.28, 0.52);
  EXPECT_EQ(begin, 1u);
  EXPECT_EQ(end, 3u);
  // A window left of every row is empty, at zero width.
  const auto [eb, ee] = kde->CandidateRows(0.0, 0.0);
  EXPECT_EQ(eb, ee);
}

TEST(KdeTest, NeighborCountScalesWithWindow) {
  auto kde = KernelDensityEstimator::Create({{0.5}}, {0.1});
  ASSERT_TRUE(kde.ok());
  const double mass = kde->BallProbability({0.5}, 0.05);
  EXPECT_NEAR(kde->NeighborCount({0.5}, 0.05, 1000.0), mass * 1000.0, 1e-9);
}

TEST(KdeTest, ScottFactoryUsesPerDimensionStddev) {
  std::vector<Point> sample{{0.3, 0.3}, {0.5, 0.5}, {0.7, 0.7}};
  auto kde = KernelDensityEstimator::CreateWithScottBandwidths(
      sample, {0.05, 0.2});
  ASSERT_TRUE(kde.ok());
  const auto b = kde->bandwidths();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_LT(b[0], b[1]);
}

TEST(KdeTest, MemoryBytesAccounting) {
  auto kde = KernelDensityEstimator::Create({{0.1, 0.2}, {0.3, 0.4}},
                                            {0.1, 0.1});
  ASSERT_TRUE(kde.ok());
  // 2 points x 2 dims + 2 bandwidths = 6 numbers.
  EXPECT_EQ(kde->MemoryBytes(2), 12u);
}

TEST(KdeTest, PdfIntegratesToBoxProbability) {
  Rng rng(5);
  auto kde = KernelDensityEstimator::Create(Sample1d(&rng, 100, 0.5, 0.08),
                                            {0.04});
  ASSERT_TRUE(kde.ok());
  const double a = 0.42, b = 0.58;
  const int n = 20000;
  double riemann = 0.0;
  for (int i = 0; i < n; ++i) {
    riemann += kde->Pdf({a + (b - a) * (i + 0.5) / n});
  }
  riemann *= (b - a) / n;
  EXPECT_NEAR(riemann, kde->BoxProbability({a}, {b}), 1e-4);
}

TEST(KdeTest, DuplicatePointsAreWeighted) {
  auto kde = KernelDensityEstimator::Create({{0.3}, {0.3}, {0.3}, {0.9}},
                                            {0.05});
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->BoxProbability({0.25}, {0.35}), 0.75, 1e-12);
  EXPECT_NEAR(kde->BoxProbability({0.85}, {0.95}), 0.25, 1e-12);
}

// Per-query cost telemetry: every box query counts in
// stats.kde.box_queries, and every non-inverted one records its
// primary-axis candidate count |R'| in stats.kde.terms_per_query.
// BallProbability is the same query, bit for bit and metric for metric.
TEST(KdeTest, BoxQueriesRecordCandidateRows) {
  Rng rng(21);
  std::vector<Point> sample;
  for (int i = 0; i < 400; ++i) {
    sample.push_back({Clamp(rng.Gaussian(0.4, 0.1), 0.0, 1.0),
                      Clamp(rng.Gaussian(0.6, 0.2), 0.0, 1.0)});
  }
  auto kde = KernelDensityEstimator::Create(sample, {0.05, 0.08});
  ASSERT_TRUE(kde.ok());

  std::vector<Point> centre, lo, hi;
  for (int b = 0; b < 12; ++b) {
    const double cx = 0.1 + 0.06 * b, cy = 0.9 - 0.05 * b;
    centre.push_back({cx, cy});
    lo.push_back({cx - 0.02, cy - 0.02});
    hi.push_back({cx + 0.02, cy + 0.02});
  }
  lo.push_back({0.5, 0.5});  // one inverted box rides along
  hi.push_back({0.4, 0.6});

  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* queries = registry.GetCounter("stats.kde.box_queries");
  obs::Histogram* terms =
      registry.GetHistogram("stats.kde.terms_per_query",
                            obs::SizeBoundaries());
  const size_t axis = kde->primary_axis();
  double candidates = 0.0;
  for (size_t q = 0; q + 1 < lo.size(); ++q) {
    const auto [begin, end] = kde->CandidateRows(lo[q][axis], hi[q][axis]);
    candidates += static_cast<double>(end - begin);
  }
  ASSERT_GT(candidates, 0.0);

  const uint64_t q0 = queries->value();
  const uint64_t c0 = terms->Count();
  const double s0 = terms->Sum();
  std::vector<double> masses;
  for (size_t q = 0; q < lo.size(); ++q) {
    masses.push_back(kde->BoxProbability(lo[q], hi[q]));
  }
  EXPECT_EQ(queries->value() - q0, 13u);
  EXPECT_EQ(terms->Count() - c0, 12u);
  EXPECT_DOUBLE_EQ(terms->Sum() - s0, candidates);
  EXPECT_EQ(masses.back(), 0.0);

  const uint64_t q1 = queries->value();
  const uint64_t c1 = terms->Count();
  const double s1 = terms->Sum();
  for (size_t q = 0; q < centre.size(); ++q) {
    EXPECT_EQ(kde->BallProbability(centre[q], 0.02), masses[q]) << q;
  }
  EXPECT_EQ(queries->value() - q1, 12u);
  EXPECT_EQ(terms->Count() - c1, 12u);
  EXPECT_DOUBLE_EQ(terms->Sum() - s1, candidates);
}

}  // namespace
}  // namespace sensord
