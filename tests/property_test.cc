// Property-based suites: the paper's structural theorems and the algebraic
// invariants every estimator implementation must satisfy, checked across
// randomized instances and parameter sweeps.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force_d.h"
#include "core/density_model.h"
#include "core/mdef.h"
#include "core/mgdd.h"
#include "core/protocol.h"
#include "core/range_query.h"
#include "core/snapshot.h"
#include "data/synthetic.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "stats/bandwidth.h"
#include "stats/divergence.h"
#include "stats/empirical.h"
#include "stats/histogram.h"
#include "stats/kde.h"
#include "stream/chain_sample.h"
#include "util/rng.h"

namespace sensord {
namespace {

// ---------------------------------------------------------------------
// Theorem 3 (Section 7): for a parent whose window is the union of its
// children's windows, the parent's distance-based outlier set is contained
// in the union of the children's outlier sets. Operationally: any value of
// child i that is an outlier of the pooled window must also be an outlier
// of child i's own window — so children escalating their own outliers
// suffices.
// ---------------------------------------------------------------------

struct Theorem3Case {
  uint64_t seed;
  size_t children;
  size_t window;
};

class Theorem3Test : public ::testing::TestWithParam<Theorem3Case> {};

// ctest's test IDs carry the printed parameter; gtest's default print of a
// struct is a byte dump that includes its uninitialised padding.
void PrintTo(const Theorem3Case& c, std::ostream* os) {
  *os << "seed" << c.seed << "_children" << c.children << "_W" << c.window;
}

TEST_P(Theorem3Test, PoolOutliersAreChildOutliers) {
  const Theorem3Case param = GetParam();
  Rng rng(param.seed);

  std::vector<std::vector<Point>> windows(param.children);
  std::vector<Point> pool;
  for (auto& w : windows) {
    // Each child gets its own cluster position plus stray values, so both
    // locally-common and locally-rare values exist.
    const double center = rng.UniformDouble(0.2, 0.7);
    for (size_t i = 0; i < param.window; ++i) {
      const double v = rng.Bernoulli(0.05)
                           ? rng.UniformDouble()
                           : Clamp(rng.Gaussian(center, 0.03), 0.0, 1.0);
      w.push_back({v});
      pool.push_back({v});
    }
  }

  DistanceOutlierConfig cfg;
  cfg.radius = 0.02;
  cfg.neighbor_threshold = 0.02 * static_cast<double>(param.window);

  size_t pool_outliers = 0;
  for (size_t c = 0; c < param.children; ++c) {
    for (const Point& p : windows[c]) {
      if (BruteForceIsDistanceOutlier(pool, p, cfg)) {
        ++pool_outliers;
        EXPECT_TRUE(BruteForceIsDistanceOutlier(windows[c], p, cfg))
            << "value " << p[0] << " is a pool outlier but not a child-"
            << c << " outlier: Theorem 3 violated";
      }
    }
  }
  // The workloads above plant stray values, so the theorem is not checked
  // vacuously.
  EXPECT_GT(pool_outliers, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem3Test,
    ::testing::Values(Theorem3Case{1, 2, 300}, Theorem3Case{2, 4, 300},
                      Theorem3Case{3, 4, 800}, Theorem3Case{4, 8, 200},
                      Theorem3Case{5, 3, 500}));

// ---------------------------------------------------------------------
// Estimator algebra: probabilities, additivity over disjoint boxes,
// monotonicity under box containment — for every estimator implementation.
// ---------------------------------------------------------------------

enum class EstimatorKindUnderTest { kKde, kHistogram, kEmpirical };

class EstimatorAlgebraTest
    : public ::testing::TestWithParam<EstimatorKindUnderTest> {
 protected:
  std::unique_ptr<DistributionEstimator> Make(uint64_t seed) {
    Rng rng(seed);
    std::vector<Point> data;
    for (int i = 0; i < 1500; ++i) {
      const double v = rng.Bernoulli(0.3)
                           ? rng.UniformDouble()
                           : Clamp(rng.Gaussian(0.4, 0.07), 0.0, 1.0);
      data.push_back({v});
    }
    switch (GetParam()) {
      case EstimatorKindUnderTest::kKde: {
        auto kde = KernelDensityEstimator::CreateWithScottBandwidths(
            std::move(data), {0.07});
        EXPECT_TRUE(kde.ok());
        return std::make_unique<KernelDensityEstimator>(
            std::move(kde).value());
      }
      case EstimatorKindUnderTest::kHistogram: {
        auto h = EquiDepthHistogram::Build(data, 64);
        EXPECT_TRUE(h.ok());
        return std::make_unique<EquiDepthHistogram>(std::move(h).value());
      }
      case EstimatorKindUnderTest::kEmpirical: {
        auto e = EmpiricalDistribution::Create(std::move(data));
        EXPECT_TRUE(e.ok());
        return std::make_unique<EmpiricalDistribution>(std::move(e).value());
      }
    }
    return nullptr;
  }
};

TEST_P(EstimatorAlgebraTest, ProbabilitiesInUnitRange) {
  auto est = Make(11);
  Rng q(12);
  for (int i = 0; i < 200; ++i) {
    double a = q.UniformDouble(-0.2, 1.2), b = q.UniformDouble(-0.2, 1.2);
    if (a > b) std::swap(a, b);
    const double mass = est->BoxProbability({a}, {b});
    EXPECT_GE(mass, 0.0);
    EXPECT_LE(mass, 1.0 + 1e-9);
  }
}

TEST_P(EstimatorAlgebraTest, AdditiveOverDisjointBoxes) {
  // Empirical closed boxes double-count shared endpoints; split at a point
  // that carries no mass (irrational-ish cut) to keep the property exact.
  auto est = Make(13);
  Rng q(14);
  for (int i = 0; i < 100; ++i) {
    double a = q.UniformDouble(0.0, 1.0), b = q.UniformDouble(0.0, 1.0);
    if (a > b) std::swap(a, b);
    const double mid = a + (b - a) * 0.6180339887498949;
    const double whole = est->BoxProbability({a}, {b});
    const double left = est->BoxProbability({a}, {mid});
    const double right = est->BoxProbability({mid}, {b});
    EXPECT_NEAR(whole, left + right, 1e-9)
        << "a=" << a << " b=" << b << " mid=" << mid;
  }
}

TEST_P(EstimatorAlgebraTest, MonotoneUnderContainment) {
  auto est = Make(15);
  Rng q(16);
  for (int i = 0; i < 100; ++i) {
    double a = q.UniformDouble(0.0, 0.5), b = q.UniformDouble(0.5, 1.0);
    const double inner = est->BoxProbability({a + 0.05}, {b - 0.05});
    const double outer = est->BoxProbability({a}, {b});
    EXPECT_LE(inner, outer + 1e-9);
  }
}

TEST_P(EstimatorAlgebraTest, TotalMassIsOne) {
  auto est = Make(17);
  EXPECT_NEAR(est->BoxProbability({-1.0}, {2.0}), 1.0, 1e-6);
}

TEST_P(EstimatorAlgebraTest, InvertedBoxIsEmpty) {
  auto est = Make(20);
  EXPECT_DOUBLE_EQ(est->BoxProbability({0.7}, {0.3}), 0.0);
  EXPECT_DOUBLE_EQ(est->BoxProbability({0.5001}, {0.5}), 0.0);
}

TEST_P(EstimatorAlgebraTest, BallEqualsCenteredBox) {
  auto est = Make(18);
  Rng q(19);
  for (int i = 0; i < 50; ++i) {
    const Point p{q.UniformDouble()};
    const double r = q.UniformDouble(0.001, 0.2);
    EXPECT_DOUBLE_EQ(est->BallProbability(p, r),
                     est->BoxProbability({p[0] - r}, {p[0] + r}));
  }
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, EstimatorAlgebraTest,
                         ::testing::Values(EstimatorKindUnderTest::kKde,
                                           EstimatorKindUnderTest::kHistogram,
                                           EstimatorKindUnderTest::kEmpirical));

// ---------------------------------------------------------------------
// JS divergence metric-like properties on random discrete distributions.
// ---------------------------------------------------------------------

TEST(JsPropertiesTest, SymmetricNonNegativeBounded) {
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + rng.UniformUint64(30);
    std::vector<double> p(n), q(n);
    for (size_t i = 0; i < n; ++i) {
      p[i] = rng.Bernoulli(0.2) ? 0.0 : rng.UniformDouble();
      q[i] = rng.Bernoulli(0.2) ? 0.0 : rng.UniformDouble();
    }
    p[rng.UniformUint64(n)] += 0.1;  // ensure not all-zero
    q[rng.UniformUint64(n)] += 0.1;
    const double js_pq = JsDivergence(p, q);
    const double js_qp = JsDivergence(q, p);
    EXPECT_NEAR(js_pq, js_qp, 1e-12);
    EXPECT_GE(js_pq, 0.0);
    EXPECT_LE(js_pq, 1.0 + 1e-12);
  }
}

TEST(JsPropertiesTest, ZeroIffIdenticalShape) {
  Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> p(8);
    for (double& x : p) x = rng.UniformDouble(0.01, 1.0);
    EXPECT_NEAR(JsDivergence(p, p), 0.0, 1e-12);
    std::vector<double> q = p;
    q[0] += 1.0;  // materially different shape
    EXPECT_GT(JsDivergence(p, q), 1e-4);
  }
}

// ---------------------------------------------------------------------
// Chain-sample distributional property across a parameter sweep: the
// probability that the newest element is in the sample must match theory.
// ---------------------------------------------------------------------

struct ChainSweep {
  size_t sample;
  size_t window;
};

class ChainSampleSweepTest : public ::testing::TestWithParam<ChainSweep> {};

void PrintTo(const ChainSweep& c, std::ostream* os) {
  *os << "R" << c.sample << "_W" << c.window;
}

TEST_P(ChainSampleSweepTest, InsertionRateMatchesTheory) {
  const ChainSweep param = GetParam();
  ChainSample cs(param.sample, param.window, Rng(31));
  Rng values(32);
  const int warm = static_cast<int>(param.window) + 500;
  const int measured = 30000;
  int insertions = 0;
  for (int i = 0; i < warm + measured; ++i) {
    const bool in = cs.Add({values.UniformDouble()});
    if (i >= warm) insertions += in ? 1 : 0;
  }
  const double p_theory =
      1.0 - std::pow(1.0 - 1.0 / static_cast<double>(param.window),
                     static_cast<double>(param.sample));
  EXPECT_NEAR(static_cast<double>(insertions) / measured, p_theory,
              0.015 + 0.1 * p_theory)
      << "R=" << param.sample << " W=" << param.window;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChainSampleSweepTest,
                         ::testing::Values(ChainSweep{10, 100},
                                           ChainSweep{50, 1000},
                                           ChainSweep{100, 1000},
                                           ChainSweep{500, 2000},
                                           ChainSweep{64, 64}));

// ---------------------------------------------------------------------
// Synthetic stream: the generated data matches its own TrueDistribution
// across dimensions (the generator and its analytic twin stay in sync).
// ---------------------------------------------------------------------

class SyntheticConsistencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SyntheticConsistencyTest, EmpiricalMatchesAnalytic) {
  SyntheticOptions opts;
  opts.dimensions = GetParam();
  SyntheticMixtureStream stream(opts, Rng(41));
  std::vector<Point> data;
  for (int i = 0; i < 40000; ++i) data.push_back(stream.Next());
  auto empirical = EmpiricalDistribution::Create(std::move(data));
  ASSERT_TRUE(empirical.ok());
  auto js = JsDivergenceOnGrid(*empirical, stream.TrueDistribution(),
                               GetParam() == 1 ? 64 : 16);
  ASSERT_TRUE(js.ok());
  EXPECT_LT(*js, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Dims, SyntheticConsistencyTest,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// Primary-axis pruning (DESIGN.md §13): in d > 1, BoxProbability,
// BallProbability and Pdf share one kernel that restricts the sweep to the
// binary-searched candidate range, and the skipped terms contribute exactly
// 0.0 — so the results must be *bit-identical* to a reference full sweep
// over the same canonical order, for every seed and dimensionality. (1-d
// sums block power sums in closed form instead; Kde1dClosedFormTest below
// bounds it against the same reference sweep.)
//
// Both suites also scale each seed's sample, bandwidths and queries by 2^k,
// k in [-3, 3]. Scaling by a power of two commutes with every rounding step
// of a query — each difference, product and quotient scales exactly — so
// box and ball masses must come out bit-identical and a density exactly
// 2^(-kd) times the unscaled one.
// ---------------------------------------------------------------------

// Every canonical row, dims in order, early exit on a zero factor, final
// division.
double ReferenceFullSweepBoxMass(const KernelDensityEstimator& kde,
                                 const std::vector<EpanechnikovKernel>& ks,
                                 const Point& lo, const Point& hi) {
  for (size_t i = 0; i < lo.size(); ++i) {
    if (lo[i] > hi[i]) return 0.0;
  }
  const FlatPoints& s = kde.sample();
  double total = 0.0;
  for (size_t row = 0; row < s.size(); ++row) {
    const double* t = s.Row(row);
    double contrib = 1.0;
    for (size_t i = 0; i < ks.size() && contrib > 0.0; ++i) {
      contrib *= ks[i].MassInInterval(t[i], lo[i], hi[i]);
    }
    total += contrib;
  }
  return total / static_cast<double>(s.size());
}

double ReferenceFullSweepPdf(const KernelDensityEstimator& kde,
                             const std::vector<EpanechnikovKernel>& ks,
                             const Point& p) {
  const FlatPoints& s = kde.sample();
  double total = 0.0;
  for (size_t row = 0; row < s.size(); ++row) {
    const double* t = s.Row(row);
    double contrib = 1.0;
    for (size_t i = 0; i < ks.size() && contrib > 0.0; ++i) {
      contrib *= ks[i].Value(p[i] - t[i]);
    }
    total += contrib;
  }
  return total / static_cast<double>(s.size());
}

Point ScaledPoint(Point p, int k) {
  for (double& x : p) x = std::ldexp(x, k);
  return p;
}

// An estimator over `sample` and `bandwidths` scaled by 2^k.
KernelDensityEstimator ScaledKde(const std::vector<Point>& sample,
                                 const std::vector<double>& bandwidths,
                                 int k) {
  std::vector<Point> scaled_sample;
  for (const Point& t : sample) scaled_sample.push_back(ScaledPoint(t, k));
  return *KernelDensityEstimator::Create(scaled_sample,
                                         ScaledPoint(bandwidths, k));
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// RangeQueryEngine::Average over the reference sweep: slice the part of
// [lo, hi] inside the sample's extent ± bandwidth along `dim` and weight
// each slice centre by its mass. Empty where Average returns an error: a
// degenerate box or one that holds no mass.
std::optional<double> ReferenceSliceAverage(
    const KernelDensityEstimator& kde,
    const std::vector<EpanechnikovKernel>& ks, size_t dim, const Point& lo,
    const Point& hi, size_t slices) {
  if (!(hi[dim] > lo[dim])) return std::nullopt;
  double extent_lo = kde.sample().At(0, dim), extent_hi = extent_lo;
  for (size_t r = 0; r < kde.sample().size(); ++r) {
    extent_lo = std::min(extent_lo, kde.sample().At(r, dim));
    extent_hi = std::max(extent_hi, kde.sample().At(r, dim));
  }
  const double from = std::max(lo[dim], extent_lo - ks[dim].bandwidth());
  const double to = std::min(hi[dim], extent_hi + ks[dim].bandwidth());
  if (!(to > from)) return std::nullopt;
  const double width = (to - from) / static_cast<double>(slices);
  double mass_total = 0.0;
  double weighted = 0.0;
  Point slice_lo(lo), slice_hi(hi);
  for (size_t s = 0; s < slices; ++s) {
    slice_lo[dim] = from + static_cast<double>(s) * width;
    slice_hi[dim] = slice_lo[dim] + width;
    const double mass =
        ReferenceFullSweepBoxMass(kde, ks, slice_lo, slice_hi);
    mass_total += mass;
    weighted += mass * (slice_lo[dim] + 0.5 * width);
  }
  if (mass_total <= 1e-12) return std::nullopt;
  return weighted / mass_total;
}

class KdePruningBitIdentityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KdePruningBitIdentityTest, PrunedPathsMatchFullSweepBitwise) {
  const size_t d = GetParam();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 977 + d);
    const size_t n = 64 + static_cast<size_t>(rng.UniformUint64(256));
    std::vector<Point> sample;
    for (size_t i = 0; i < n; ++i) {
      Point p(d);
      for (double& x : p) {
        // Clustered bulk plus uniform strays, the fig9 shape — wide spread
        // on some axes so the primary-axis choice is exercised.
        x = rng.Bernoulli(0.2)
                ? rng.UniformDouble()
                : Clamp(rng.Gaussian(0.3 + 0.2 * rng.Bernoulli(0.5), 0.05),
                        0.0, 1.0);
      }
      sample.push_back(std::move(p));
    }
    std::vector<double> bandwidths(d);
    for (double& b : bandwidths) b = rng.UniformDouble(0.02, 0.15);

    auto kde = KernelDensityEstimator::Create(sample, bandwidths);
    ASSERT_TRUE(kde.ok());
    std::vector<EpanechnikovKernel> kernels;
    for (double b : bandwidths) kernels.emplace_back(b);
    const int k = static_cast<int>(seed % 7) - 3;
    const KernelDensityEstimator scaled = ScaledKde(sample, bandwidths, k);

    // Average's slices over the bulk of the sample and over the seed's
    // first random box, which may hold no mass.
    std::vector<std::pair<Point, Point>> average_boxes{
        {Point(d, 0.15), Point(d, 0.65)}};
    for (int q = 0; q < 8; ++q) {
      Point lo(d), hi(d), centre(d);
      double r = 0.0;
      for (size_t i = 0; i < d; ++i) {
        centre[i] = rng.UniformDouble(-0.1, 1.1);
        r = rng.UniformDouble(0.005, 0.12);
        lo[i] = centre[i] - r;
        hi[i] = centre[i] + r;
      }
      const double pruned = kde->BoxProbability(lo, hi);
      const double reference =
          ReferenceFullSweepBoxMass(*kde, kernels, lo, hi);
      ASSERT_EQ(pruned, reference)
          << "box mass diverged at seed " << seed << " d " << d;
      ASSERT_EQ(Bits(scaled.BoxProbability(ScaledPoint(lo, k),
                                           ScaledPoint(hi, k))),
                Bits(pruned))
          << "scaled box mass diverged at seed " << seed << " k " << k;
      ASSERT_EQ(Bits(scaled.BallProbability(ScaledPoint(centre, k),
                                            std::ldexp(r, k))),
                Bits(kde->BallProbability(centre, r)))
          << "scaled ball mass diverged at seed " << seed << " k " << k;

      Point p(d);
      for (size_t i = 0; i < d; ++i) p[i] = rng.UniformDouble(-0.1, 1.1);
      const double pdf = kde->Pdf(p);
      ASSERT_EQ(pdf, ReferenceFullSweepPdf(*kde, kernels, p))
          << "pdf diverged at seed " << seed << " d " << d;
      ASSERT_EQ(Bits(scaled.Pdf(ScaledPoint(p, k))),
                Bits(std::ldexp(pdf, -k * static_cast<int>(d))))
          << "scaled pdf diverged at seed " << seed << " k " << k;

      if (q == 0) average_boxes.emplace_back(std::move(lo), std::move(hi));
    }

    const RangeQueryEngine engine(&*kde, 1000.0);
    const size_t dim = seed % d;
    for (const auto& [lo, hi] : average_boxes) {
      const auto average = engine.Average(dim, lo, hi);
      const std::optional<double> reference =
          ReferenceSliceAverage(*kde, kernels, dim, lo, hi, 64);
      ASSERT_EQ(average.ok(), reference.has_value())
          << "average status diverged at seed " << seed << " d " << d;
      if (reference) {
        ASSERT_EQ(Bits(*average), Bits(*reference))
            << "average diverged at seed " << seed << " d " << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KdePruningBitIdentityTest,
                         ::testing::Values(2, 3));

// ---------------------------------------------------------------------
// Closed-form 1-d interval mass (DESIGN.md §13): BoxProbability and Pdf
// in 1-d sum block-centred power sums instead of the kernel terms. They
// must stay within 1e-12 of the term sweep everywhere —
// Scott-wide bandwidths, the kMinBandwidth clamp over near-duplicate
// clusters (where power sums about one global centre lose ≈1e-5), a
// constant sample, intervals wide enough that whole kernels fall inside,
// queries outside [0, 1] — and keep the exact answers: 0.0 for an empty
// candidate range or an inverted box, no negative mass, Ball == Box bit for
// bit, and the power-of-two scaling property above.
// ---------------------------------------------------------------------

TEST(Kde1dClosedFormTest, MatchesTermSweepAndKeepsExactAnswers) {
  constexpr double kTolerance = 1e-12;
  double worst = 0.0;      // |closed − sweep| over the masses
  double worst_pdf = 0.0;  // the same over max(1, f) for the densities
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 7919 + 1);
    const size_t n = 64 + static_cast<size_t>(rng.UniformUint64(448));
    const int shape = static_cast<int>(seed % 3);
    std::vector<Point> sample;
    double bandwidth = 0.0;
    std::vector<double> centres;  // where the narrow queries aim
    if (shape == 0) {
      // The fig9 shape, clustered bulk plus uniform strays, at a Scott-wide
      // bandwidth.
      for (size_t i = 0; i < n; ++i) {
        sample.push_back({rng.Bernoulli(0.2)
                              ? rng.UniformDouble()
                              : Clamp(rng.Gaussian(0.3 + 0.2 * rng.Bernoulli(
                                                                   0.5),
                                                   0.05),
                                      0.0, 1.0)});
      }
      bandwidth = rng.UniformDouble(0.02, 0.15);
      centres = {0.3, 0.5, rng.UniformDouble()};
    } else if (shape == 1) {
      // Near-duplicate clusters at the bandwidth floor.
      for (int c = 0; c < 4; ++c) centres.push_back(rng.UniformDouble());
      for (size_t i = 0; i < n; ++i) {
        const double c = centres[rng.UniformUint64(centres.size())];
        sample.push_back({c + rng.UniformDouble(-3e-4, 3e-4)});
      }
      bandwidth = kMinBandwidth;
    } else {
      // A constant sample: Scott's rule sees σ = 0 and clamps.
      const double c = rng.UniformDouble();
      sample.assign(n, Point{c});
      bandwidth = ScottBandwidths({0.0}, n)[0];
      ASSERT_EQ(bandwidth, kMinBandwidth);
      centres = {c};
    }
    auto kde = KernelDensityEstimator::Create(sample, {bandwidth});
    ASSERT_TRUE(kde.ok());
    const std::vector<EpanechnikovKernel> kernels{
        EpanechnikovKernel(bandwidth)};
    const int k = static_cast<int>(seed % 7) - 3;
    const KernelDensityEstimator scaled = ScaledKde(sample, {bandwidth}, k);

    for (int q = 0; q < 24; ++q) {
      // Narrow intervals near the mass, intervals wider than 2B (full
      // kernels inside), and anywhere in [-0.1, 1.1].
      double centre, r;
      switch (q % 3) {
        case 0:
          centre = centres[rng.UniformUint64(centres.size())] +
                   rng.UniformDouble(-2.0, 2.0) * bandwidth;
          r = rng.UniformDouble(0.0, 1.5) * bandwidth;
          break;
        case 1:
          centre = centres[rng.UniformUint64(centres.size())] +
                   rng.UniformDouble(-2.0, 2.0) * bandwidth;
          r = rng.UniformDouble(1.0, 6.0) * bandwidth;
          break;
        default:
          centre = rng.UniformDouble(-0.1, 1.1);
          r = rng.UniformDouble(0.005, 0.12);
          break;
      }
      const Point lo{centre - r}, hi{centre + r};
      const double box = kde->BoxProbability(lo, hi);
      const double reference =
          ReferenceFullSweepBoxMass(*kde, kernels, lo, hi);
      worst = std::max(worst, std::fabs(box - reference));
      ASSERT_LE(std::fabs(box - reference), kTolerance)
          << "seed " << seed << " query " << q;
      ASSERT_GE(box, 0.0) << "seed " << seed << " query " << q;
      ASSERT_EQ(Bits(kde->BallProbability({centre}, r)), Bits(box))
          << "seed " << seed << " query " << q;
      ASSERT_EQ(Bits(scaled.BoxProbability(ScaledPoint(lo, k),
                                           ScaledPoint(hi, k))),
                Bits(box))
          << "scaled box mass diverged at seed " << seed << " k " << k;
      ASSERT_EQ(Bits(scaled.BallProbability({std::ldexp(centre, k)},
                                            std::ldexp(r, k))),
                Bits(box))
          << "scaled ball mass diverged at seed " << seed << " k " << k;

      // A density reaches 0.75/B = 7500 at kMinBandwidth, where the term
      // sweep's own rounding is ≈1e-15 of it: bound the error relative to
      // max(1, f).
      const Point p{centre};
      const double pdf = kde->Pdf(p);
      const double pdf_reference = ReferenceFullSweepPdf(*kde, kernels, p);
      const double pdf_error =
          std::fabs(pdf - pdf_reference) / std::max(1.0, pdf_reference);
      worst_pdf = std::max(worst_pdf, pdf_error);
      ASSERT_LE(pdf_error, kTolerance)
          << "pdf " << pdf_reference << ", seed " << seed << " query " << q;
      ASSERT_GE(pdf, 0.0);
      ASSERT_EQ(Bits(scaled.Pdf(ScaledPoint(p, k))),
                Bits(std::ldexp(pdf, -k)))
          << "scaled pdf diverged at seed " << seed << " k " << k;
    }
    // Exact answers: no kernel touches the interval, or the box is
    // inverted.
    EXPECT_EQ(kde->BoxProbability({1.5}, {2.5}), 0.0);
    EXPECT_EQ(kde->BoxProbability({-2.0}, {-1.0}), 0.0);
    EXPECT_EQ(kde->Pdf({3.0}), 0.0);
    EXPECT_EQ(kde->BoxProbability({0.6}, {0.4}), 0.0);
  }
  std::ostringstream errors;
  errors << "mass " << worst << ", pdf " << worst_pdf;
  RecordProperty("max_error", errors.str());
}

// ---------------------------------------------------------------------
// The factored MDEF cell kernel (DESIGN.md §13) walks each kernel's cells as
// an odometer over per-dimension spans of non-zero mass, and the estimator
// memoises the cell masses it computes. Every cell must receive the same
// product, in the same order, as the per-cell walk that decoded each cell
// index with div/mod — so every MdefResult field must be *bit-identical* to
// that walk, kept here as the reference, whichever queries filled the memo
// and in whatever order.
// ---------------------------------------------------------------------

MdefResult ReferenceDivModMdef(const KernelDensityEstimator& kde,
                               const Point& p, const MdefConfig& config) {
  const size_t d = kde.dimensions();
  const double side = 2.0 * config.counting_radius;
  const double r = config.sampling_radius;
  const size_t cells_per_dim = static_cast<size_t>(std::ceil(1.0 / side));
  std::vector<std::vector<double>> cell_lo(d);
  for (size_t dim = 0; dim < d; ++dim) {
    const long first = static_cast<long>(std::floor((p[dim] - r) / side));
    const long last = static_cast<long>(std::floor((p[dim] + r) / side));
    for (long j = std::max(0L, first);
         j <= last && j < static_cast<long>(cells_per_dim); ++j) {
      const double a = static_cast<double>(j) * side;
      if (std::fabs(a + 0.5 * side - p[dim]) > r) continue;
      cell_lo[dim].push_back(a);
    }
  }
  size_t total_cells = 1;
  for (size_t dim = 0; dim < d; ++dim) total_cells *= cell_lo[dim].size();
  if (total_cells == 0) {
    return MdefFromMasses(kde.BallProbability(p, config.counting_radius),
                          0.0, 0.0, 0.0, 0, config);
  }
  const std::vector<double> bandwidths = kde.bandwidths();
  std::vector<EpanechnikovKernel> kernels;
  for (double b : bandwidths) kernels.emplace_back(b);
  std::vector<double> cell_mass(total_cells, 0.0);
  std::vector<std::vector<double>> per_dim(d);
  const size_t axis = kde.primary_axis();
  const auto [row_begin, row_end] = kde.CandidateRows(
      cell_lo[axis].front(), cell_lo[axis].back() + side);
  for (size_t row = row_begin; row < row_end; ++row) {
    const double* t = kde.sample().Row(row);
    bool overlaps = true;
    for (size_t dim = 0; dim < d && overlaps; ++dim) {
      overlaps = t[dim] + bandwidths[dim] > cell_lo[dim].front() &&
                 t[dim] - bandwidths[dim] < cell_lo[dim].back() + side;
    }
    if (!overlaps) continue;
    for (size_t dim = 0; dim < d; ++dim) {
      per_dim[dim].assign(cell_lo[dim].size(), 0.0);
      for (size_t j = 0; j < cell_lo[dim].size(); ++j) {
        per_dim[dim][j] = kernels[dim].MassInInterval(
            t[dim], cell_lo[dim][j], cell_lo[dim][j] + side);
      }
    }
    for (size_t c = 0; c < total_cells; ++c) {
      double m = 1.0;
      size_t rest = c;
      for (size_t dim = d; dim-- > 0 && m > 0.0;) {
        m *= per_dim[dim][rest % cell_lo[dim].size()];
        rest /= cell_lo[dim].size();
      }
      cell_mass[c] += m;
    }
  }
  const double inv_n = 1.0 / static_cast<double>(kde.sample_size());
  double sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
  for (double m : cell_mass) {
    const double s = m * inv_n;
    sum1 += s;
    sum2 += s * s;
    sum3 += s * s * s;
  }
  return MdefFromMasses(kde.BallProbability(p, config.counting_radius), sum1,
                        sum2, sum3, total_cells, config);
}

void ExpectBitIdentical(const MdefResult& got, const MdefResult& want,
                        const std::string& where) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  EXPECT_EQ(bits(got.counting_mass), bits(want.counting_mass)) << where;
  EXPECT_EQ(bits(got.avg_mass), bits(want.avg_mass)) << where;
  EXPECT_EQ(bits(got.sigma_mass), bits(want.sigma_mass)) << where;
  EXPECT_EQ(bits(got.mdef), bits(want.mdef)) << where;
  EXPECT_EQ(bits(got.sigma_mdef), bits(want.sigma_mdef)) << where;
  EXPECT_EQ(got.is_outlier, want.is_outlier) << where;
  EXPECT_EQ(got.cells_considered, want.cells_considered) << where;
}

class MdefKernelBitIdentityTest : public ::testing::TestWithParam<size_t> {};

// Clustered bulk plus uniform strays in [0.1, 0.5]^d, so [0.8, 1]^d holds
// no sample point.
std::vector<Point> MdefTestSample(size_t d, size_t n, Rng* rng) {
  std::vector<Point> sample;
  for (size_t i = 0; i < n; ++i) {
    Point t(d);
    for (double& x : t) {
      x = rng->Bernoulli(0.2) ? rng->UniformDouble(0.1, 0.5)
                              : Clamp(rng->Gaussian(0.3, 0.04), 0.1, 0.5);
    }
    sample.push_back(std::move(t));
  }
  return sample;
}

// A grid the memo holds in d = 3 as well: side 0.08, 13 cells per axis.
MdefConfig CoarseMdefConfig() {
  MdefConfig config;
  config.sampling_radius = 0.12;
  config.counting_radius = 0.04;
  config.k_sigma = 1.0;
  return config;
}

// Evaluates `queries` in `order` on `kde` and checks every result against
// the div/mod reference, bit for bit.
void ExpectOrderMatchesReference(const KernelDensityEstimator& kde,
                                 const std::vector<Point>& queries,
                                 const std::vector<size_t>& order,
                                 const MdefConfig& config,
                                 const std::string& where) {
  for (size_t q : order) {
    ExpectBitIdentical(ComputeMdef(kde, queries[q], config),
                       ReferenceDivModMdef(kde, queries[q], config),
                       where + " query " + std::to_string(q));
  }
}

TEST_P(MdefKernelBitIdentityTest, FactoredScanMatchesDivModWalkBitwise) {
  const size_t d = GetParam();
  MdefConfig config;  // r = 0.08, alpha*r = 0.01: an 8-9 cell grid per axis
  config.k_sigma = 1.0;
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("stats.kde.cell_memo_hits");
  size_t empty_sweeps = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 131 + d);
    const size_t n = 64 + static_cast<size_t>(rng.UniformUint64(448));
    const std::vector<Point> sample = MdefTestSample(d, n, &rng);
    // Wide: Scott bandwidths from sigma = 0.2, so most kernels cover every
    // cell. Narrow: a fraction of a cell up to a few cells, so spans trim.
    auto wide = KernelDensityEstimator::CreateWithScottBandwidths(
        sample, std::vector<double>(d, 0.2));
    ASSERT_TRUE(wide.ok());
    std::vector<double> narrow_b(d);
    for (double& b : narrow_b) b = rng.UniformDouble(0.005, 0.05);
    auto narrow = KernelDensityEstimator::Create(sample, narrow_b);
    ASSERT_TRUE(narrow.ok());

    std::vector<Point> queries;
    for (int q = 0; q < 6; ++q) {  // in and around the bulk
      Point p(d);
      for (double& x : p) x = rng.UniformDouble(0.05, 0.55);
      queries.push_back(std::move(p));
    }
    for (int q = 0; q < 4; ++q) {  // domain edges: clamped cell lists
      Point p(d);
      for (double& x : p) {
        const double edge[] = {0.0, 0.004, 0.02, 0.97, 0.995, 1.0};
        x = edge[rng.UniformUint64(6)];
      }
      queries.push_back(std::move(p));
    }
    Point outside(d);  // beyond every kernel's support: an empty sweep
    for (double& x : outside) x = rng.UniformDouble(0.8, 0.9);
    queries.push_back(outside);

    std::vector<size_t> in_order(queries.size()), shuffled(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) in_order[q] = shuffled[q] = q;
    for (size_t q = queries.size(); q > 1; --q) {
      std::swap(shuffled[q - 1], shuffled[rng.UniformUint64(q)]);
    }

    for (const KernelDensityEstimator* pristine : {&*wide, &*narrow}) {
      // One estimator serves both grids in turn, so the second grid's cold
      // pass also checks that a new grid replaces the old memo.
      KernelDensityEstimator kde = *pristine;
      for (const MdefConfig& cfg : {config, CoarseMdefConfig()}) {
        const bool default_grid =
            cfg.counting_radius == config.counting_radius;
        const std::string where =
            "seed " + std::to_string(seed) + " d " + std::to_string(d) +
            " wide " + std::to_string(pristine == &*wide) + " coarse " +
            std::to_string(!default_grid);
        // Cold, then warming as overlapping queries fill the memo.
        ExpectOrderMatchesReference(kde, queries, in_order, cfg,
                                    where + " cold");
        // Fully warm, in another order: every evaluation is a memo hit
        // wherever the grid is memoised.
        const uint64_t hits_before = hits->value();
        ExpectOrderMatchesReference(kde, queries, shuffled, cfg,
                                    where + " warm");
        const bool memoised = d == 2 || !default_grid;
        EXPECT_EQ(hits->value() - hits_before,
                  memoised ? queries.size() : 0u)
            << where;
        // The memo stays within its cap; d = 3 at the default radii
        // (125,000 cells) allocates none.
        EXPECT_LE(kde.cell_memo_cells(),
                  KernelDensityEstimator::kMaxCellMemoCells);
        if (!memoised) {
          EXPECT_EQ(kde.cell_memo_cells(), 0u) << where;
        }
        if (d == 2 && default_grid) {
          EXPECT_EQ(kde.cell_memo_cells(), 2500u) << where;
        }
        // Cold again, in the shuffled order: other sub-boxes fill the cells.
        KernelDensityEstimator reshuffled = *pristine;
        ExpectOrderMatchesReference(reshuffled, queries, shuffled, cfg,
                                    where + " shuffled cold");
      }
    }
    const MdefResult swept =
        ReferenceDivModMdef(*narrow, queries.back(), config);
    empty_sweeps += swept.cells_considered > 0 && swept.avg_mass == 0.0;
  }
  // The outside-support case really swept no mass (not vacuously empty).
  EXPECT_EQ(empty_sweeps, 50u);
}

TEST_P(MdefKernelBitIdentityTest, MemoFollowsSuccessiveEstimators) {
  // A DensityModel rebuilds its estimator as its sample changes; each
  // rebuild starts a new memo, so every estimator answers from its own
  // sample, never from cells a predecessor filled.
  const size_t d = GetParam();
  const MdefConfig config = d == 2 ? MdefConfig{} : CoarseMdefConfig();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 733 + d);
    DensityModelConfig mc;
    mc.dimensions = d;
    mc.window_size = 400;
    mc.sample_size = 64;
    mc.max_estimator_age = 8;
    DensityModel model(mc, rng.Split());
    const std::vector<Point> stream = MdefTestSample(d, 600, &rng);
    std::vector<Point> queries = MdefTestSample(d, 4, &rng);
    const KernelDensityEstimator* previous = nullptr;
    size_t rebuilds = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      model.Observe(stream[i]);
      if (i < 100 || i % 25 != 0) continue;
      const KernelDensityEstimator& kde = model.Estimator();
      rebuilds += &kde != previous;
      previous = &kde;
      ExpectOrderMatchesReference(
          kde, queries, {0, 1, 2, 3}, config,
          "seed " + std::to_string(seed) + " reading " + std::to_string(i));
    }
    EXPECT_GT(rebuilds, 0u);
  }
}

// Hands `slots` (and sigmas) to `leaf` as one global-model update.
void DeliverReplica(MgddLeafNode* leaf, NodeId from,
                    const std::vector<GlobalSlotUpdate>& slots,
                    std::vector<double> stddevs) {
  auto update = std::make_shared<GlobalModelUpdatePayload>();
  update->updates = slots;
  update->stddevs = std::move(stddevs);
  Message msg;
  msg.from = from;
  msg.to = leaf->id();
  msg.kind = kMsgGlobalModelUpdate;
  msg.payload = std::shared_ptr<const GlobalModelUpdatePayload>(update);
  leaf->HandleMessage(msg);
}

std::vector<MdefResult> EvaluateAll(const KernelDensityEstimator& kde,
                                    const std::vector<Point>& queries,
                                    const MdefConfig& config) {
  std::vector<MdefResult> out;
  for (const Point& p : queries) out.push_back(ComputeMdef(kde, p, config));
  return out;
}

TEST_P(MdefKernelBitIdentityTest, MemoFollowsLeafReplicaRestoreAndReset) {
  // An MGDD leaf's replica estimator, and with it its memo, must follow the
  // replica through updates, a checkpoint restore and an amnesia reset.
  const size_t d = GetParam();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 977 + d);
    MgddOptions opts;
    opts.model.dimensions = d;
    opts.model.sample_size = 96;
    opts.mdef = d == 2 ? MdefConfig{} : CoarseMdefConfig();
    Simulator sim;
    const auto layout = BuildGridHierarchy(2, 2);
    ASSERT_TRUE(layout.ok());
    const std::vector<NodeId> ids = sim.Instantiate(
        *layout, [&](int, const HierarchyNodeSpec& spec)
                     -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<MgddLeafNode>(opts, rng.Split(), nullptr);
          }
          return std::make_unique<MgddInternalNode>(opts, rng.Split());
        });
    auto& leaf = static_cast<MgddLeafNode&>(sim.node(ids[0]));
    const NodeId root = ids.back();
    const std::vector<double> sigmas(d, 0.1);

    std::vector<GlobalSlotUpdate> first;
    for (const Point& t : MdefTestSample(d, opts.model.sample_size, &rng)) {
      first.push_back(
          GlobalSlotUpdate{static_cast<uint32_t>(first.size()), t});
    }
    std::vector<GlobalSlotUpdate> second;  // a third of the slots move
    const std::vector<Point> moved = MdefTestSample(d, 32, &rng);
    for (size_t i = 0; i < moved.size(); ++i) {
      second.push_back(GlobalSlotUpdate{static_cast<uint32_t>(3 * i),
                                        moved[i]});
    }
    const std::vector<Point> queries = MdefTestSample(d, 5, &rng);
    const std::string where = "seed " + std::to_string(seed);
    const std::vector<size_t> order = {0, 1, 2, 3, 4};

    DeliverReplica(&leaf, root, first, sigmas);
    const std::vector<MdefResult> at_first =
        EvaluateAll(leaf.GlobalEstimator(), queries, opts.mdef);
    ExpectOrderMatchesReference(leaf.GlobalEstimator(), queries, order,
                                opts.mdef, where + " first");
    const std::vector<uint8_t> checkpoint = leaf.SaveState();

    DeliverReplica(&leaf, root, second, sigmas);
    const std::vector<MdefResult> at_second =
        EvaluateAll(leaf.GlobalEstimator(), queries, opts.mdef);
    ExpectOrderMatchesReference(leaf.GlobalEstimator(), queries, order,
                                opts.mdef, where + " second");

    // Restore: back to the first replica, whose answers must return.
    leaf.ResetVolatileState();
    ASSERT_TRUE(leaf.RestoreState(checkpoint));
    const std::vector<MdefResult> restored =
        EvaluateAll(leaf.GlobalEstimator(), queries, opts.mdef);
    for (size_t q = 0; q < queries.size(); ++q) {
      ExpectBitIdentical(restored[q], at_first[q], where + " restored");
    }

    // Amnesia: no replica until the next update, then that update's.
    leaf.ResetVolatileState();
    ASSERT_FALSE(leaf.HasGlobalModel());
    DeliverReplica(&leaf, root, first, sigmas);
    DeliverReplica(&leaf, root, second, sigmas);
    const std::vector<MdefResult> reset =
        EvaluateAll(leaf.GlobalEstimator(), queries, opts.mdef);
    for (size_t q = 0; q < queries.size(); ++q) {
      ExpectBitIdentical(reset[q], at_second[q], where + " reset");
    }
  }
}

TEST_P(MdefKernelBitIdentityTest, MemoFillRuleAtCellEdges) {
  // Rows whose support edge t ± B sits on a cell edge — exactly, and one
  // ulp either side. Whether such a row reaches the cell is decided by the
  // reach test alone, so the cell's memoised mass is the same whether a
  // query filled it at the edge of its sub-box or in its interior, in
  // either order, and equals the reference's.
  const size_t d = GetParam();
  const MdefConfig config = d == 2 ? MdefConfig{} : CoarseMdefConfig();
  const double side = 2.0 * config.counting_radius;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 389 + d);
    std::vector<Point> sample = MdefTestSample(d, 40, &rng);
    const size_t axis = rng.UniformUint64(d);
    const size_t cell = 8 + rng.UniformUint64(4);  // a cell in the bulk
    const double edge = static_cast<double>(cell) * side;
    std::vector<double> bandwidths(d);
    for (double& b : bandwidths) b = rng.UniformDouble(0.005, 0.06);
    const double b = bandwidths[axis];
    for (double centre :
         {edge - b, edge + b, edge + side - b, edge + side + b}) {
      for (double t : {std::nextafter(centre, 0.0), centre,
                       std::nextafter(centre, 1.0)}) {
        Point row = MdefTestSample(d, 1, &rng)[0];
        row[axis] = t;
        sample.push_back(std::move(row));
      }
    }
    auto pristine = KernelDensityEstimator::Create(sample, bandwidths);
    ASSERT_TRUE(pristine.ok());

    // The edge cell first in its query's sub-box, last in another's, and
    // in the middle of a third's.
    const double centre = edge + 0.5 * side;
    const double r = config.sampling_radius;
    std::vector<Point> queries;
    for (double at : {centre + r - 0.25 * side, centre - r + 0.25 * side,
                      centre}) {
      Point p(d, 0.3);
      p[axis] = at;
      queries.push_back(std::move(p));
    }
    const std::string where = "seed " + std::to_string(seed);
    for (const std::vector<size_t>& order :
         {std::vector<size_t>{0, 1, 2}, std::vector<size_t>{2, 1, 0},
          std::vector<size_t>{1, 2, 0}}) {
      KernelDensityEstimator kde = *pristine;
      ExpectOrderMatchesReference(kde, queries, order, config, where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, MdefKernelBitIdentityTest,
                         ::testing::Values(2, 3));

// ---------------------------------------------------------------------
// The maintained canonical sample (DESIGN.md §13): from its first query on,
// a DensityModel patches a canonically ordered copy of its chain sample on
// every change, and a rebuild hands that copy to Create(), which then does
// not sort. After every Observe the copy must be *bit-identical* to sorting
// a fresh snapshot, and every estimator the model builds must equal, bit for
// bit, one built afresh out of SnapshotTo + Create — across heavy
// duplicates and ±0.0, rows that arrive and depart within one Add (an
// expiry promoting a row that a restart then replaces), the seeding Add,
// Serialize/Restore mid-stream, age-only rebuilds and, for d > 1, flips of
// the primary axis.
// ---------------------------------------------------------------------

bool BitEqual(const FlatPoints& a, const FlatPoints& b) {
  if (a.dimensions() != b.dimensions() || a.data().size() != b.data().size()) {
    return false;
  }
  return a.data().empty() ||
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// The snapshot sorted under CanonicalLess on `axis`, by std::sort over
// owning points — independent of Create() and of the maintained buffer.
FlatPoints ReferenceCanonicalOrder(const ChainSample& sample, size_t axis) {
  FlatPoints snapshot;
  sample.SnapshotTo(&snapshot);
  const size_t d = snapshot.dimensions();
  std::vector<Point> rows = snapshot.ToPoints();
  std::sort(rows.begin(), rows.end(), [d, axis](const Point& a,
                                                const Point& b) {
    return KernelDensityEstimator::CanonicalLess(a.data(), b.data(), d, axis);
  });
  return FlatPoints::FromPoints(rows);
}

// Phase 0 and 2 vary only axis 0, phase 1 only axis d − 1; the other axes
// hold ±0.0, which compare equal, so whole rows tie up to the sign of
// zero. Phases 0 and 1 draw from a 1/8 grid with extra ±0.0 (heavy
// duplicates); phase 2 draws distinct values, so a row seen both arriving
// and departing within one Add is one element, not a look-alike.
Point CanonicalStressReading(size_t d, size_t phase, Rng* rng) {
  Point p(d);
  const size_t live = phase == 1 ? d - 1 : 0;
  for (size_t i = 0; i < d; ++i) {
    const double zero = rng->Bernoulli(0.5) ? -0.0 : 0.0;
    if (i != live) {
      p[i] = zero;
    } else if (phase == 2) {
      p[i] = rng->UniformDouble();
    } else {
      p[i] = rng->Bernoulli(0.2)
                 ? zero
                 : static_cast<double>(rng->UniformUint64(9)) / 8.0;
    }
  }
  return p;
}

class CanonicalSampleBitIdentityTest
    : public ::testing::TestWithParam<size_t> {};

TEST_P(CanonicalSampleBitIdentityTest, MaintainedOrderMatchesFreshSort) {
  const size_t d = GetParam();
  obs::Counter* rebuild_counter = obs::MetricsRegistry::Global().GetCounter(
      "core.density_model.estimator_rebuilds");
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  uint64_t age_only_rebuilds = 0;
  uint64_t arrived_then_departed = 0;
  uint64_t signed_zero_ties = 0;
  uint64_t patched_checks = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 7919 + d);
    DensityModelConfig cfg;
    cfg.dimensions = d;
    cfg.window_size = 32 + rng.UniformUint64(65);
    cfg.sample_size = 16 + rng.UniformUint64(33);
    cfg.epsilon = 0.2;
    cfg.max_estimator_age = 1 + rng.UniformUint64(3);
    const uint64_t model_seed = rng.UniformUint64(1u << 30);
    DensityModel model(cfg, Rng(model_seed));
    // A second sampler on the same rng evolves exactly like the model's,
    // and shows each Add()'s change report.
    ChainSample mirror(cfg.sample_size, cfg.window_size, Rng(model_seed));
    SampleChanges changes;

    const size_t phase_length = 2 * cfg.window_size;
    const size_t steps = 3 * phase_length;
    const size_t restore_at = phase_length + rng.UniformUint64(phase_length);
    size_t axis = 0;
    size_t axis_flips = 0;
    bool built = false;
    uint64_t built_version = 0;
    for (size_t step = 0; step < steps; ++step) {
      const size_t phase = step / phase_length;
      const Point p = CanonicalStressReading(d, phase, &rng);
      model.Observe(p);
      mirror.Add(p, &changes);
      ASSERT_EQ(mirror.version(), model.sample().version());
      if (step == 0) {
        // The seeding Add displaces nothing and activates every chain.
        ASSERT_EQ(changes.departed.size(), 0u);
        ASSERT_EQ(changes.arrived.size(), cfg.sample_size);
      } else {
        ASSERT_EQ(changes.departed.size(), changes.arrived.size());
      }
      if (phase == 2) {
        for (size_t k = 0; k < changes.departed.size(); ++k) {
          for (size_t j = 0; j < k; ++j) {
            if (changes.departed.At(k, 0) == changes.arrived.At(j, 0) &&
                changes.arrived.At(j, 0) != p[0]) {
              ++arrived_then_departed;
            }
          }
        }
      }

      if (step == restore_at) {
        SnapshotWriter writer;
        model.Serialize(&writer);
        const std::vector<uint8_t> bytes = std::move(writer).Finish(1);
        auto reader = SnapshotReader::Open(bytes, 1);
        ASSERT_TRUE(reader.ok());
        ASSERT_TRUE(model.Restore(&reader.value()));
        ASSERT_TRUE(model.canonical_sample().empty())
            << "Restore must drop the maintained buffer";
        built = false;
      }

      if (!model.canonical_sample().empty()) {
        const FlatPoints& maintained = model.canonical_sample();
        // Until the next rebuild the buffer keeps the last estimator's
        // axis; compare with Create()'s order whenever that is the same.
        FlatPoints snapshot;
        model.sample().SnapshotTo(&snapshot);
        auto fresh = KernelDensityEstimator::CreateWithScottBandwidths(
            std::move(snapshot), model.BandwidthSpreads());
        ASSERT_TRUE(fresh.ok());
        const FlatPoints expected =
            fresh->primary_axis() == axis
                ? fresh->sample()
                : ReferenceCanonicalOrder(model.sample(), axis);
        ASSERT_TRUE(BitEqual(maintained, expected))
            << "maintained order diverged at seed " << seed << " d " << d
            << " step " << step;
        ++patched_checks;
        for (size_t row = 1; row < maintained.size(); ++row) {
          const double* a = maintained.Row(row - 1);
          const double* b = maintained.Row(row);
          if (std::equal(a, a + d, b) && std::memcmp(a, b, d * 8) != 0) {
            ++signed_zero_ties;
          }
        }
      }

      if (step != 0 && !rng.Bernoulli(0.5)) continue;
      const uint64_t version = model.sample().version();
      const uint64_t rebuilds_before = rebuild_counter->value();
      const KernelDensityEstimator& est = model.Estimator();
      const bool rebuilt = rebuild_counter->value() != rebuilds_before;
      if (rebuilt && built && version == built_version) ++age_only_rebuilds;
      if (rebuilt) {
        built = true;
        built_version = version;
      }
      if (step != 0 && est.primary_axis() != axis) ++axis_flips;
      axis = est.primary_axis();
      ASSERT_TRUE(BitEqual(model.canonical_sample(), est.sample()));
      // A cache hit keeps the bandwidths of its build; only a rebuild must
      // match an estimator made from the current state.
      if (!rebuilt) continue;

      FlatPoints snapshot;
      model.sample().SnapshotTo(&snapshot);
      auto from_snapshot = KernelDensityEstimator::CreateWithScottBandwidths(
          std::move(snapshot), model.BandwidthSpreads());
      ASSERT_TRUE(from_snapshot.ok());
      ASSERT_EQ(est.primary_axis(), from_snapshot->primary_axis());
      ASSERT_EQ(est.bandwidths(), from_snapshot->bandwidths());
      ASSERT_TRUE(BitEqual(est.sample(), from_snapshot->sample()))
          << "rebuilt estimator diverged at seed " << seed << " d " << d
          << " step " << step;
      for (int q = 0; q < 4; ++q) {
        Point lo(d), hi(d), at(d);
        for (size_t i = 0; i < d; ++i) {
          const double c = rng.UniformDouble(-0.1, 1.1);
          const double r = rng.UniformDouble(0.01, 0.3);
          lo[i] = c - r;
          hi[i] = c + r;
          at[i] = rng.Bernoulli(0.3) ? 0.0 : rng.UniformDouble();
        }
        ASSERT_EQ(bits(est.BoxProbability(lo, hi)),
                  bits(from_snapshot->BoxProbability(lo, hi)))
            << "box mass diverged at seed " << seed << " d " << d;
        ASSERT_EQ(bits(est.Pdf(at)), bits(from_snapshot->Pdf(at)))
            << "pdf diverged at seed " << seed << " d " << d;
      }
    }
    if (d > 1) {
      EXPECT_GE(axis_flips, 1u) << "primary axis never moved, seed " << seed;
    }
  }
  EXPECT_GT(age_only_rebuilds, 0u);
  EXPECT_GT(arrived_then_departed, 0u);
  EXPECT_GT(signed_zero_ties, 0u);
  EXPECT_GT(patched_checks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Dims, CanonicalSampleBitIdentityTest,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// An MGDD leaf keeps its global replica the way DensityModel keeps its
// sample: a copy of the valid slots in the cached estimator's canonical
// order, patched per slot diff (DESIGN.md §13). After every update the
// replica's estimator must equal, bit for bit, one built afresh from the
// valid slots in slot order — through warm-up slots turning valid, 1-3
// slot diffs over heavy duplicates and ±0.0, sigma changes that move the
// primary axis, full snapshots, out-of-range slots and a mid-sequence
// SaveState/RestoreState.
// ---------------------------------------------------------------------

class MgddReplicaBitIdentityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MgddReplicaBitIdentityTest, PatchedReplicaMatchesFreshBuild) {
  const size_t d = GetParam();
  uint64_t patched_rebuilds = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 6151 + d);
    MgddOptions opts;
    opts.model.dimensions = d;
    opts.model.sample_size = 16 + rng.UniformUint64(33);
    const size_t slots = opts.model.sample_size;
    Simulator sim;
    const auto layout = BuildGridHierarchy(2, 2);
    ASSERT_TRUE(layout.ok());
    const std::vector<NodeId> ids = sim.Instantiate(
        *layout, [&](int, const HierarchyNodeSpec& spec)
                     -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<MgddLeafNode>(opts, rng.Split(), nullptr);
          }
          return std::make_unique<MgddInternalNode>(opts, rng.Split());
        });
    auto& leaf = static_cast<MgddLeafNode&>(sim.node(ids[0]));
    const NodeId root = ids.back();
    const std::string where = "seed " + std::to_string(seed);

    // What the leaf must hold: the slots (nullopt = never filled) and the
    // latest sigmas. Sigmas alternate which axis is narrowest, and the
    // narrowest axis (largest spread / bandwidth) is the primary one.
    std::vector<std::optional<Point>> mirror(slots);
    std::vector<double> sigmas(d, 0.2);
    const auto flip_sigmas = [&] {
      for (size_t i = 0; i < d; ++i) sigmas[i] = sigmas[i] == 0.2 ? 0.05 : 0.2;
      if (d > 1) sigmas[rng.UniformUint64(d)] = 0.05;
    };
    flip_sigmas();
    const size_t steps = 4 * slots;
    const size_t save_at = slots + rng.UniformUint64(slots);
    const size_t restore_at = save_at + 1 + rng.UniformUint64(slots);
    std::vector<uint8_t> checkpoint;
    std::vector<std::optional<Point>> saved_mirror;
    std::vector<double> saved_sigmas;
    size_t axis_flips = 0;
    std::optional<size_t> axis;

    for (size_t step = 0; step < steps; ++step) {
      std::vector<GlobalSlotUpdate> diff;
      bool full = false;
      if (step % 23 == 22) flip_sigmas();
      if (step < slots / 2) {
        // Warm-up: 1-3 slots, any of which may still be empty.
        for (uint64_t k = 1 + rng.UniformUint64(3); k > 0; --k) {
          diff.push_back(GlobalSlotUpdate{
              static_cast<uint32_t>(rng.UniformUint64(slots)),
              CanonicalStressReading(d, step % 2, &rng)});
        }
      } else if (step == slots / 2 || step % 37 == 36) {
        // A full snapshot (a resync) fills every slot.
        full = true;
        for (size_t i = 0; i < slots; ++i) {
          diff.push_back(GlobalSlotUpdate{static_cast<uint32_t>(i),
                                          CanonicalStressReading(d, 0, &rng)});
        }
      } else {
        // A steady-state diff of 1-3 slots, sometimes naming the same slot
        // twice or a slot past the end.
        for (uint64_t k = 1 + rng.UniformUint64(3); k > 0; --k) {
          const uint32_t slot = static_cast<uint32_t>(
              rng.Bernoulli(0.05) ? slots + rng.UniformUint64(4)
                                  : rng.UniformUint64(slots));
          diff.push_back(GlobalSlotUpdate{
              slot, CanonicalStressReading(d, step % 2, &rng)});
        }
      }
      bool grows = false;
      for (const GlobalSlotUpdate& u : diff) {
        if (u.slot >= slots) continue;
        grows = grows || !mirror[u.slot].has_value();
        mirror[u.slot] = u.value;
      }
      const bool maintained = !leaf.canonical_replica().empty();
      DeliverReplica(&leaf, root, diff, sigmas);
      if (full || grows) {
        ASSERT_TRUE(leaf.canonical_replica().empty())
            << where << " step " << step
            << ": a full or growing update must drop the canonical copy";
      }

      if (step == save_at) {
        checkpoint = leaf.SaveState();
        saved_mirror = mirror;
        saved_sigmas = sigmas;
      } else if (step == restore_at) {
        leaf.ResetVolatileState();
        ASSERT_TRUE(leaf.RestoreState(checkpoint)) << where;
        ASSERT_TRUE(leaf.canonical_replica().empty())
            << where << ": a restore must drop the canonical copy";
        mirror = saved_mirror;
        sigmas = saved_sigmas;
      }

      std::vector<Point> valid;
      for (const std::optional<Point>& slot : mirror) {
        if (slot.has_value()) valid.push_back(*slot);
      }
      ASSERT_EQ(leaf.HasGlobalModel(), !valid.empty()) << where;
      if (valid.empty()) continue;
      const auto reference =
          KernelDensityEstimator::CreateWithScottBandwidths(valid, sigmas);
      ASSERT_TRUE(reference.ok());
      const KernelDensityEstimator& est = leaf.GlobalEstimator();
      if (maintained && !full && !grows && step != restore_at) {
        ++patched_rebuilds;
      }
      ASSERT_EQ(est.primary_axis(), reference->primary_axis())
          << where << " step " << step;
      ASSERT_EQ(est.bandwidths(), reference->bandwidths())
          << where << " step " << step;
      ASSERT_TRUE(BitEqual(est.sample(), reference->sample()))
          << "replica diverged at " << where << " d " << d << " step "
          << step;
      ASSERT_TRUE(BitEqual(leaf.canonical_replica(), est.sample()))
          << where << " step " << step;
      if (axis.has_value() && *axis != est.primary_axis()) ++axis_flips;
      axis = est.primary_axis();
    }
    if (d > 1) {
      EXPECT_GE(axis_flips, 1u) << "primary axis never moved, " << where;
    }
  }
  EXPECT_GT(patched_rebuilds, 0u);
}

INSTANTIATE_TEST_SUITE_P(Dims, MgddReplicaBitIdentityTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace sensord
