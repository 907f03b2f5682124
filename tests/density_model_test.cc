#include "core/density_model.h"

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "stats/divergence.h"
#include "util/check.h"

// Counts every heap allocation in the process so the rebuild-path tests can
// assert allocation-freedom (same idiom as bench/micro_benchmarks.cc).
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// The replacement operators below pair malloc with free correctly, but
// GCC's heuristic sees new-expressions resolving to free() and flags a
// mismatch; the override is TU-wide, so suppress it file-wide.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sensord {
namespace {

DensityModelConfig SmallConfig() {
  DensityModelConfig cfg;
  cfg.dimensions = 1;
  cfg.window_size = 1000;
  cfg.sample_size = 100;
  cfg.epsilon = 0.2;
  return cfg;
}

TEST(DensityModelTest, NotReadyBeforeData) {
  DensityModel m(SmallConfig(), Rng(1));
  EXPECT_FALSE(m.Ready());
  EXPECT_EQ(m.total_seen(), 0u);
}

TEST(DensityModelTest, ReadyAfterFirstObservation) {
  DensityModel m(SmallConfig(), Rng(2));
  m.Observe({0.5});
  EXPECT_TRUE(m.Ready());
  EXPECT_EQ(m.total_seen(), 1u);
  EXPECT_EQ(m.Estimator().sample_size(), 100u);  // all chains seeded
}

TEST(DensityModelTest, WindowCountTracksWarmup) {
  DensityModel m(SmallConfig(), Rng(3));
  Rng values(4);
  for (int i = 0; i < 500; ++i) m.Observe({values.UniformDouble()});
  EXPECT_DOUBLE_EQ(m.WindowCount(), 500.0);
  for (int i = 0; i < 1000; ++i) m.Observe({values.UniformDouble()});
  EXPECT_DOUBLE_EQ(m.WindowCount(), 1000.0);  // capped at |W|
}

TEST(DensityModelTest, LogicalWindowCountScalesWithWarmup) {
  DensityModelConfig cfg = SmallConfig();
  cfg.logical_window_count = 4000.0;  // a leader speaking for 4 children
  DensityModel m(cfg, Rng(5));
  Rng values(6);
  for (int i = 0; i < 500; ++i) m.Observe({values.UniformDouble()});
  EXPECT_DOUBLE_EQ(m.WindowCount(), 2000.0);  // half warmed
  for (int i = 0; i < 1000; ++i) m.Observe({values.UniformDouble()});
  EXPECT_DOUBLE_EQ(m.WindowCount(), 4000.0);
}

TEST(DensityModelTest, StdDevsApproximateStream) {
  DensityModel m(SmallConfig(), Rng(7));
  Rng values(8);
  for (int i = 0; i < 3000; ++i) m.Observe({values.Gaussian(0.5, 0.08)});
  const auto sd = m.StdDevs();
  ASSERT_EQ(sd.size(), 1u);
  EXPECT_NEAR(sd[0], 0.08, 0.02);
  EXPECT_NEAR(m.Means()[0], 0.5, 0.02);
}

TEST(DensityModelTest, EstimatorApproximatesDistribution) {
  DensityModel m(SmallConfig(), Rng(9));
  SyntheticMixtureStream stream(SyntheticOptions{}, Rng(10));
  for (int i = 0; i < 5000; ++i) m.Observe(stream.Next());
  auto js = JsDivergenceOnGrid(m.Estimator(), stream.TrueDistribution(), 64);
  ASSERT_TRUE(js.ok());
  EXPECT_LT(*js, 0.1);
}

TEST(DensityModelTest, EstimatorCacheInvalidatesOnSampleChange) {
  DensityModelConfig cfg = SmallConfig();
  cfg.max_estimator_age = 1000000;  // only sample changes invalidate
  DensityModel m(cfg, Rng(11));
  Rng values(12);
  m.Observe({0.5});
  const auto* first = &m.Estimator();
  // Push enough data that the sample surely changes.
  for (int i = 0; i < 500; ++i) m.Observe({values.UniformDouble()});
  const auto* second = &m.Estimator();
  // Pointers may coincide (reused storage); compare contents instead.
  bool same = first == second &&
              m.sample().version() == 0;  // version 0 impossible after seed
  EXPECT_FALSE(same);
  EXPECT_EQ(second->sample_size(), 100u);
}

TEST(DensityModelTest, EstimatorRefreshesByAge) {
  DensityModelConfig cfg = SmallConfig();
  cfg.max_estimator_age = 10;
  DensityModel m(cfg, Rng(13));
  Rng values(14);
  for (int i = 0; i < 100; ++i) m.Observe({values.Gaussian(0.5, 0.01)});
  const auto b1 = m.Estimator().bandwidths()[0];
  // Shift the distribution so the sketch sigma moves; after > age
  // observations the bandwidths must follow even without sample changes.
  for (int i = 0; i < 400; ++i) m.Observe({values.Gaussian(0.5, 0.2)});
  const auto b2 = m.Estimator().bandwidths()[0];
  EXPECT_GT(b2, b1);
}

TEST(DensityModelTest, ObserveReportsSampleInsertions) {
  DensityModel m(SmallConfig(), Rng(15));
  EXPECT_TRUE(m.Observe({0.1}));  // first observation always enters
  Rng values(16);
  int insertions = 0;
  for (int i = 0; i < 5000; ++i) {
    insertions += m.Observe({values.UniformDouble()}) ? 1 : 0;
  }
  EXPECT_GT(insertions, 0);
  EXPECT_LT(insertions, 5000);
}

TEST(DensityModelTest, MultiDimensional) {
  DensityModelConfig cfg = SmallConfig();
  cfg.dimensions = 2;
  DensityModel m(cfg, Rng(17));
  Rng values(18);
  for (int i = 0; i < 2000; ++i) {
    m.Observe({values.Gaussian(0.3, 0.05), values.Gaussian(0.7, 0.1)});
  }
  const auto sd = m.StdDevs();
  ASSERT_EQ(sd.size(), 2u);
  EXPECT_LT(sd[0], sd[1]);
  EXPECT_EQ(m.Estimator().dimensions(), 2u);
}

TEST(DensityModelTest, MemoryWithinTheorem1Bound) {
  DensityModelConfig cfg;
  cfg.dimensions = 1;
  cfg.window_size = 20000;
  cfg.sample_size = 2000;
  cfg.epsilon = 0.2;
  DensityModel m(cfg, Rng(19));
  Rng values(20);
  for (int i = 0; i < 40000; ++i) m.Observe({values.Gaussian(0.4, 0.05)});
  EXPECT_LE(m.MemoryBytes(2), m.TheoreticalBoundBytes(2));
  // The paper's Section 7 example states < 10KB at these "large" values,
  // counting only the |R| sample values themselves. Our accounting also
  // charges chain indices, queued replacements and sketch buckets — a
  // strictly fuller inventory — and must still land in the same tens-of-KB
  // regime that fits a mote with 512KB of memory.
  EXPECT_LT(m.MemoryBytes(2), 32u * 1024u);
  const size_t sample_only_bytes =
      cfg.sample_size * cfg.dimensions * 2;  // what the paper counts
  EXPECT_LT(sample_only_bytes, 10u * 1024u);
}

TEST(DensityModelTest, RobustBandwidthResolvesSpikyData) {
  // 96% of readings at a tight operating point + rare deep excursions:
  // the global sigma is inflated by the excursions, so Scott's rule
  // over-smooths the spike; the robust option keeps it sharp.
  auto feed = [](DensityModel* m, uint64_t seed) {
    Rng values(seed);
    for (int i = 0; i < 5000; ++i) {
      const double v = values.Bernoulli(0.04)
                           ? values.UniformDouble(0.05, 0.3)
                           : values.Gaussian(0.42, 0.005);
      m->Observe({Clamp(v, 0.0, 1.0)});
    }
  };
  DensityModelConfig cfg = SmallConfig();
  DensityModel scott(cfg, Rng(30));
  cfg.robust_bandwidth = true;
  DensityModel robust(cfg, Rng(30));
  feed(&scott, 31);
  feed(&robust, 31);

  EXPECT_LT(robust.Estimator().bandwidths()[0],
            scott.Estimator().bandwidths()[0]);
  // The robust model resolves the spike: its density at the operating
  // point is much closer to the truth (~0.96 mass within +/-0.015).
  const double scott_peak =
      scott.Estimator().BoxProbability({0.405}, {0.435});
  const double robust_peak =
      robust.Estimator().BoxProbability({0.405}, {0.435});
  EXPECT_GT(robust_peak, scott_peak);
  EXPECT_GT(robust_peak, 0.8);
}

// The flat rebuild path must produce exactly the estimator the allocating
// vector<Point> path would: same canonical flat sample, same bandwidths,
// bit-identical answers.
TEST(DensityModelTest, FlatRebuildMatchesPointVectorRebuild) {
  for (const bool robust : {false, true}) {
    DensityModelConfig cfg = SmallConfig();
    cfg.dimensions = 2;
    cfg.robust_bandwidth = robust;
    DensityModel m(cfg, Rng(23));
    Rng values(24);
    for (int i = 0; i < 3000; ++i) {
      m.Observe({values.Gaussian(0.4, 0.06),
                 Clamp(values.Gaussian(0.6, 0.15), 0.0, 1.0)});
    }
    const KernelDensityEstimator& flat = m.Estimator();
    auto reference = KernelDensityEstimator::CreateWithScottBandwidths(
        m.sample().Snapshot(), m.BandwidthSpreads());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(flat.sample(), reference.value().sample());
    EXPECT_EQ(flat.bandwidths(), reference.value().bandwidths());
    ASSERT_EQ(flat.BoxProbability({0.3, 0.4}, {0.5, 0.8}),
              reference.value().BoxProbability({0.3, 0.4}, {0.5, 0.8}))
        << "robust=" << robust;
  }
}

// The DESIGN.md §13 rebuild contract: once warm, materializing a fresh
// estimator allocates a small constant number of O(d) vectors and zero
// per-point blocks — so the count is identical whether the sample holds
// 128 or 2048 points.
uint64_t AllocsForOneRebuild(size_t sample_size, bool robust) {
  DensityModelConfig cfg;
  cfg.dimensions = 2;
  cfg.window_size = 4096;
  cfg.sample_size = sample_size;
  cfg.max_estimator_age = 1;  // every query after an observe rebuilds
  cfg.robust_bandwidth = robust;
  DensityModel m(cfg, Rng(25));
  Rng values(26);
  auto feed = [&] {
    m.Observe({Clamp(values.Gaussian(0.4, 0.08), 0.0, 1.0),
               Clamp(values.Gaussian(0.5, 0.1), 0.0, 1.0)});
  };
  for (size_t i = 0; i < cfg.window_size; ++i) feed();
  // Two warm-up rebuilds: the first allocates the maintained canonical
  // buffer and the first estimator's storage, the second hands that storage
  // on, as every later rebuild does.
  m.Estimator();
  feed();
  m.Estimator();
  feed();
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  m.Estimator();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(DensityModelTest, RebuildPerformsZeroPerPointAllocations) {
  for (const bool robust : {false, true}) {
    const uint64_t small = AllocsForOneRebuild(128, robust);
    const uint64_t large = AllocsForOneRebuild(2048, robust);
    EXPECT_EQ(small, large) << "robust=" << robust
                            << ": rebuild allocations scale with |R|";
    EXPECT_LE(small, 8u) << "robust=" << robust;
  }
}

#if SENSORD_DCHECK_IS_ON()

// Observe() requires finite coordinates (raw readings are screened by the
// ingest firewall first): the canonical sample order has no place for NaN.
TEST(DensityModelDeathTest, ObserveRejectsNonFiniteCoordinates) {
  DensityModel m(SmallConfig(), Rng(27));
  m.Observe({0.5});
  EXPECT_DEATH(m.Observe({std::numeric_limits<double>::quiet_NaN()}),
               "isfinite");
  EXPECT_DEATH(m.Observe({-std::numeric_limits<double>::infinity()}),
               "isfinite");
}

#endif  // SENSORD_DCHECK_IS_ON()

TEST(DensityModelTest, PrewarmStartsAtSteadyState) {
  DensityModelConfig cfg = SmallConfig();
  cfg.prewarm_steady_state = true;
  DensityModel m(cfg, Rng(21));
  EXPECT_FALSE(m.Ready());
  EXPECT_EQ(m.total_seen(), cfg.window_size);
  m.Observe({0.5});
  EXPECT_TRUE(m.Ready());
}

}  // namespace
}  // namespace sensord
