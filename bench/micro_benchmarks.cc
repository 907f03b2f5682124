// Micro-benchmarks (google-benchmark) for the paper's per-operation cost
// claims: O(d|R|) box range queries — a closed form in 1-d — cheap chain
// sample and variance sketch updates (Theorems 1, 2, 4), estimator
// rebuilds, MGDD replica updates, MDEF evaluation, JS divergence on a grid,
// and a fleet of models' per-reading cost and memory. The BM_Obs* group
// holds the obs layer to its budget: counter updates and histogram records
// in single-digit nanoseconds, disabled instrumentation at zero allocations
// per event (reported as the allocs_per_op counter via the operator new
// override below).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/density_model.h"
#include "core/mdef.h"
#include "core/mgdd.h"
#include "data/synthetic.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/divergence.h"
#include "stats/histogram.h"
#include "stats/kde.h"
#include "stream/chain_sample.h"
#include "stream/variance_sketch.h"
#include "util/rng.h"

// Counts every heap allocation in the process so benchmarks can assert
// allocation-freedom of a measured loop.
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

namespace {

using namespace sensord;

std::vector<Point> RandomSample(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point p(d);
    for (double& x : p) x = Clamp(rng.Gaussian(0.4, 0.08), 0.0, 1.0);
    out.push_back(std::move(p));
  }
  return out;
}

void BM_ChainSampleAdd(benchmark::State& state) {
  const size_t sample = static_cast<size_t>(state.range(0));
  ChainSample cs(sample, 10000, Rng(1));
  Rng values(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.Add({values.UniformDouble()}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainSampleAdd)->Arg(128)->Arg(512)->Arg(2048);

// Steady-state Add() of a sketch whose window has slid four times, so the
// bucket ring has reached its size: allocs_per_op must read 0
// (scripts/bench.sh fails otherwise).
void BM_VarianceSketchAdd(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  VarianceSketch sketch(window, 0.2);
  Rng values(3);
  for (size_t i = 0; i < 4 * window; ++i) {
    sketch.Add(values.Gaussian(0.4, 0.05));
  }
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    sketch.Add(values.Gaussian(0.4, 0.05));
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
  state.counters["buckets"] = static_cast<double>(sketch.NumBuckets());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VarianceSketchAdd)->Arg(10000)->Arg(20000);

// One StdDev() query of a full sketch over the paper's 3-Gaussian mixture:
// the O(1) read of the two-stack window aggregate (the oldest bucket, the
// next one's front aggregate and the running back aggregate) that each
// estimator rebuild pays per dimension for Scott's rule.
void BM_VarianceSketchStdDev(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  VarianceSketch sketch(window, 0.2);
  SyntheticMixtureStream stream(SyntheticOptions{}, Rng(3));
  for (size_t i = 0; i < 2 * window; ++i) sketch.Add(stream.Next()[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.StdDev());
  }
  state.counters["buckets"] = static_cast<double>(sketch.NumBuckets());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VarianceSketchStdDev)->Arg(10000);

// d3_1d's sketch load per reading: a D3 leaf at |W| = 10000 rebuilds its
// estimator about once every ten readings (core.density_model.rebuild_ratio
// ≈ 0.10), so each iteration is ten Add()s and one StdDev() on a
// steady-state sketch over the mixture stream. allocs_per_op must read 0
// (scripts/bench.sh fails otherwise).
void BM_VarianceSketchAddStdDev(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  VarianceSketch sketch(window, 0.2);
  SyntheticMixtureStream stream(SyntheticOptions{}, Rng(3));
  std::vector<double> values(64 * 1024);
  for (double& v : values) v = stream.Next()[0];
  size_t next = 0;
  for (size_t i = 0; i < 4 * window; ++i) {
    sketch.Add(values[next]);
    next = (next + 1) % values.size();
  }
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (int i = 0; i < 10; ++i) {
      sketch.Add(values[next]);
      next = (next + 1) % values.size();
    }
    benchmark::DoNotOptimize(sketch.StdDev());
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VarianceSketchAddStdDev)->Arg(10000);

// The D3 leaf's query: the mass of [p − 0.01, p + 0.01] under a 500-row
// sample of the paper's 3-Gaussian mixture at Scott's bandwidth, p a
// reading of the same stream. r is below B, so no kernel lies wholly inside
// the interval. The query allocates nothing: allocs_per_op must read 0
// (scripts/bench.sh fails otherwise).
void BM_KdeBoxQuery1d(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SyntheticMixtureStream stream(SyntheticOptions{}, Rng(4));
  const std::vector<Point> sample = stream.Take(n);
  double mean = 0.0;
  for (const Point& p : sample) mean += p[0];
  mean /= static_cast<double>(n);
  double ss = 0.0;
  for (const Point& p : sample) ss += (p[0] - mean) * (p[0] - mean);
  auto kde = KernelDensityEstimator::CreateWithScottBandwidths(
      sample, {std::sqrt(ss / static_cast<double>(n))});
  const std::vector<Point> queries = stream.Take(4096);
  size_t next = 0;
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde->BallProbability(queries[next], 0.01));
    next = (next + 1) % queries.size();
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
  state.counters["bandwidth"] = kde->bandwidths()[0];
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdeBoxQuery1d)->Arg(500);

void BM_KdeBoxQuery2d(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto kde = KernelDensityEstimator::CreateWithScottBandwidths(
      RandomSample(n, 2, 6), {0.08, 0.08});
  Rng q(7);
  for (auto _ : state) {
    const double cx = q.UniformDouble(), cy = q.UniformDouble();
    benchmark::DoNotOptimize(kde->BoxProbability({cx - 0.01, cy - 0.01},
                                                 {cx + 0.01, cy + 0.01}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdeBoxQuery2d)->Arg(128)->Arg(512)->Arg(2048);

// Primary-axis pruning on 24 clustered boxes, the shape of an MDEF cell
// scan, issued one BoxProbability call at a time: the terms_per_box
// counter is the mean primary-axis candidate count |R'| a box actually
// evaluates, and prune_factor = |R| / terms_per_box is the saving over the
// full-sample sweep the pre-flat engine performed. The box vectors are
// sized before the count starts, so allocs_per_op is the queries' own.
template <size_t kDims>
void KdeBoxQueryPruned(benchmark::State& state, uint64_t sample_seed,
                       uint64_t query_seed) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto kde = KernelDensityEstimator::CreateWithScottBandwidths(
      RandomSample(n, kDims, sample_seed), std::vector<double>(kDims, 0.08));
  obs::Histogram* terms = obs::MetricsRegistry::Global().GetHistogram(
      "stats.kde.terms_per_query", obs::SizeBoundaries());
  Rng q(query_seed);
  // A 6 x 4 cell grid in 2-d, 4 x 3 x 2 in 3-d.
  constexpr size_t kBoxes = 24;
  constexpr size_t kRuns[] = {kDims == 2 ? 6u : 4u, kDims == 2 ? 4u : 3u, 2u};
  std::vector<Point> lo(kBoxes, Point(kDims)), hi(kBoxes, Point(kDims));
  Point centre(kDims);
  const uint64_t count_before = terms->Count();
  const double sum_before = terms->Sum();
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (double& c : centre) c = q.UniformDouble();
    for (size_t b = 0; b < kBoxes; ++b) {
      size_t cell = b;
      for (size_t i = 0; i < kDims; ++i) {
        const double offset = 0.02 * static_cast<double>(cell % kRuns[i]);
        cell /= kRuns[i];
        lo[b][i] = centre[i] + offset - 0.01;
        hi[b][i] = centre[i] + offset + 0.01;
      }
      benchmark::DoNotOptimize(kde->BoxProbability(lo[b], hi[b]));
    }
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
  const double boxes = static_cast<double>(terms->Count() - count_before);
  const double terms_per_box =
      boxes > 0.0 ? (terms->Sum() - sum_before) / boxes : 0.0;
  state.counters["terms_per_box"] = terms_per_box;
  state.counters["prune_factor"] =
      terms_per_box > 0.0 ? static_cast<double>(n) / terms_per_box : 0.0;
  state.SetItemsProcessed(state.iterations() * kBoxes);
}

void BM_KdeBoxQueryPruned2d(benchmark::State& state) {
  KdeBoxQueryPruned<2>(state, 6, 7);
}
BENCHMARK(BM_KdeBoxQueryPruned2d)->Arg(128)->Arg(512)->Arg(2048);

void BM_KdeBoxQueryPruned3d(benchmark::State& state) {
  KdeBoxQueryPruned<3>(state, 20, 21);
}
BENCHMARK(BM_KdeBoxQueryPruned3d)->Arg(128)->Arg(512)->Arg(2048);

void BM_HistogramBoxQuery(benchmark::State& state) {
  auto hist = EquiDepthHistogram::Build(
      RandomSample(10000, 1, 8), static_cast<size_t>(state.range(0)));
  Rng q(9);
  for (auto _ : state) {
    const double center = q.UniformDouble();
    benchmark::DoNotOptimize(
        hist->BoxProbability({center - 0.01}, {center + 0.01}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramBoxQuery)->Arg(128)->Arg(512);

void BM_MdefEvaluation1d(benchmark::State& state) {
  auto kde = KernelDensityEstimator::CreateWithScottBandwidths(
      RandomSample(static_cast<size_t>(state.range(0)), 1, 10), {0.08});
  MdefConfig cfg;
  Rng q(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeMdef(*kde, {q.UniformDouble(0.2, 0.6)}, cfg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MdefEvaluation1d)->Arg(128)->Arg(512);

void BM_MdefEvaluation2d(benchmark::State& state) {
  auto kde = KernelDensityEstimator::CreateWithScottBandwidths(
      RandomSample(static_cast<size_t>(state.range(0)), 2, 12),
      {0.08, 0.08});
  MdefConfig cfg;
  Rng q(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMdef(
        *kde, {q.UniformDouble(0.2, 0.6), q.UniformDouble(0.2, 0.6)}, cfg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MdefEvaluation2d)->Arg(128)->Arg(512);

// The sigmas of the perf benchmark's mgdd_2d replicas: at |R| = 512 Scott's
// rule (B = sqrt(5) sigma |R|^(-1/6) in 2-d) turns them into B = (0.051,
// 0.062), the mean bandwidths of mgdd_2d's replica estimators over all
// cell fills at seed 2026.
const std::vector<double> kMgdd2dSigmas = {0.065, 0.078};

// The perf benchmark's mgdd_2d evaluation shape: a 2-d paper-mixture sample
// of |R| = n, Scott bandwidths from kMgdd2dSigmas (a kernel spans about 5
// of the 8 cells per axis of r = 0.08, alpha*r = 0.01), and queries drawn
// from the same stream.
std::pair<KernelDensityEstimator, std::vector<Point>> MdefScottCase(
    int64_t n) {
  SyntheticOptions so;
  so.dimensions = 2;
  SyntheticMixtureStream stream(so, Rng(20));
  std::vector<Point> sample;
  for (int64_t i = 0; i < n; ++i) sample.push_back(stream.Next());
  auto kde = KernelDensityEstimator::CreateWithScottBandwidths(sample,
                                                               kMgdd2dSigmas);
  std::vector<Point> queries;
  for (int i = 0; i < 1024; ++i) queries.push_back(stream.Next());
  return {std::move(kde).value(), std::move(queries)};
}

// Warm: one estimator forever. A pass over the queries before the clock
// starts fills the estimator's cell memo, so the loop times memo hits, which
// must allocate nothing (allocs_per_op; scripts/bench.sh fails otherwise).
void BM_MdefEvaluation2dScott(benchmark::State& state) {
  const auto [kde, queries] = MdefScottCase(state.range(0));
  MdefConfig cfg;
  for (const Point& p : queries) {
    benchmark::DoNotOptimize(ComputeMdef(kde, p, cfg));
  }
  size_t q = 0;
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMdef(kde, queries[q], cfg));
    q = (q + 1) % queries.size();
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MdefEvaluation2dScott)->Arg(512);

// Each estimator answers `per_version` consecutive queries and is then
// replaced by a fresh copy whose memo is empty, as a replica update replaces
// an MGDD leaf's estimator. The copies are made with the clock stopped.
void MdefEvaluation2dScottFresh(benchmark::State& state, size_t per_version) {
  const auto [pristine, queries] = MdefScottCase(state.range(0));
  MdefConfig cfg;
  std::vector<KernelDensityEstimator> fresh;
  size_t next = 0, used = per_version, q = 0;
  for (auto _ : state) {
    if (used == per_version) {
      used = 0;
      if (++next >= fresh.size()) {
        state.PauseTiming();
        fresh.assign(64, pristine);
        next = 0;
        state.ResumeTiming();
      }
    }
    benchmark::DoNotOptimize(ComputeMdef(fresh[next], queries[q], cfg));
    ++used;
    q = (q + 1) % queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}

// Cold: every evaluation fills its cells on an estimator no query has seen.
void BM_MdefEvaluation2dScottCold(benchmark::State& state) {
  MdefEvaluation2dScottFresh(state, 1);
}
BENCHMARK(BM_MdefEvaluation2dScottCold)->Arg(512);

// Per version: 8 evaluations per estimator, mgdd_2d's measured ratio of MDEF
// scans to replica updates (64,000 to 8,176 at seed 2026).
void BM_MdefEvaluation2dScottPerVersion(benchmark::State& state) {
  MdefEvaluation2dScottFresh(state, 8);
}
BENCHMARK(BM_MdefEvaluation2dScottPerVersion)->Arg(512);

// An mgdd_2d leaf's replica update: a 1-slot diff, the root's usual push,
// applied to a warmed 2-d leaf of |R| = Arg slots, then the
// GlobalEstimator() rebuild its next reading makes. The diffs are built
// before the clock starts. allocs_per_update counts what HandleMessage and
// the rebuild allocate; it must not grow with |R| (scripts/bench.sh fails
// unless /512 equals /128): a slot diff allocates nothing per slot.
void BM_MgddReplicaUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MgddOptions opts;
  opts.model.dimensions = 2;
  opts.model.sample_size = n;
  Simulator sim;
  Rng rng(22);
  const std::vector<NodeId> ids = sim.Instantiate(
      *BuildGridHierarchy(2, 2),
      [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<MgddLeafNode>(opts, rng.Split(), nullptr);
        }
        return std::make_unique<MgddInternalNode>(opts, rng.Split());
      });
  auto& leaf = static_cast<MgddLeafNode&>(sim.node(ids[0]));
  SyntheticOptions so;
  so.dimensions = 2;
  SyntheticMixtureStream stream(so, Rng(23));
  const auto update = [&](std::vector<GlobalSlotUpdate> slots) {
    auto payload = std::make_shared<GlobalModelUpdatePayload>();
    payload->updates = std::move(slots);
    payload->stddevs = kMgdd2dSigmas;
    Message msg;
    msg.from = ids.back();
    msg.to = ids[0];
    msg.kind = kMsgGlobalModelUpdate;
    msg.payload = std::shared_ptr<const GlobalModelUpdatePayload>(payload);
    return msg;
  };
  std::vector<GlobalSlotUpdate> every;
  for (size_t i = 0; i < n; ++i) {
    every.push_back(GlobalSlotUpdate{static_cast<uint32_t>(i), stream.Next()});
  }
  std::vector<Message> diffs;
  for (int i = 0; i < 4096; ++i) {
    diffs.push_back(update({GlobalSlotUpdate{
        static_cast<uint32_t>(rng.UniformUint64(n)), stream.Next()}}));
  }
  // Fill every slot, then rebuild twice so the estimator's storage is
  // recycled from here on.
  leaf.HandleMessage(update(std::move(every)));
  benchmark::DoNotOptimize(&leaf.GlobalEstimator());
  size_t next = 0;
  for (; next < 2; ++next) {
    leaf.HandleMessage(diffs[next]);
    benchmark::DoNotOptimize(&leaf.GlobalEstimator());
  }
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    leaf.HandleMessage(diffs[next]);
    benchmark::DoNotOptimize(&leaf.GlobalEstimator());
    next = (next + 1) % diffs.size();
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_update"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MgddReplicaUpdate)->Arg(128)->Arg(512);

void BM_JsDivergenceOnGrid(benchmark::State& state) {
  auto a = KernelDensityEstimator::CreateWithScottBandwidths(
      RandomSample(512, 1, 14), {0.08});
  auto b = KernelDensityEstimator::CreateWithScottBandwidths(
      RandomSample(512, 1, 15), {0.08});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JsDivergenceOnGrid(*a, *b, static_cast<size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsDivergenceOnGrid)->Arg(64)->Arg(256);

void BM_DensityModelObserve(benchmark::State& state) {
  DensityModelConfig cfg;
  cfg.window_size = 10000;
  cfg.sample_size = static_cast<size_t>(state.range(0));
  DensityModel model(cfg, Rng(16));
  Rng values(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.Observe({Clamp(values.Gaussian(0.4, 0.05), 0.0, 1.0)}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DensityModelObserve)->Arg(500)->Arg(2000);

// The zero-realloc rebuild contract: once the maintained canonical buffer
// and the estimator's storage are warm, materializing a fresh estimator
// performs a small constant number of O(d) allocations and zero per-point
// ones — allocs_per_rebuild must not grow from Arg(512) to Arg(2048)
// (scripts/bench.sh fails if it does).
void BM_DensityModelRebuild(benchmark::State& state) {
  DensityModelConfig cfg;
  cfg.dimensions = 2;
  cfg.window_size = 10000;
  cfg.sample_size = static_cast<size_t>(state.range(0));
  cfg.max_estimator_age = 1;  // every Estimator() after an Observe rebuilds
  DensityModel model(cfg, Rng(18));
  Rng values(19);
  Point p(2);  // reused so feeding itself does not allocate
  const auto feed = [&] {
    p[0] = Clamp(values.Gaussian(0.4, 0.08), 0.0, 1.0);
    p[1] = Clamp(values.Gaussian(0.5, 0.1), 0.0, 1.0);
    model.Observe(p);
  };
  for (size_t i = 0; i < cfg.window_size; ++i) feed();
  model.Estimator();  // allocates the canonical buffer and first estimator
  feed();
  model.Estimator();  // recycles the first estimator's storage from now on
  uint64_t rebuild_allocs = 0;
  for (auto _ : state) {
    feed();
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(&model.Estimator());
    rebuild_allocs +=
        g_alloc_count.load(std::memory_order_relaxed) - before;
  }
  state.counters["allocs_per_rebuild"] =
      static_cast<double>(rebuild_allocs) /
      static_cast<double>(state.iterations() > 0 ? state.iterations() : 1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DensityModelRebuild)->Arg(512)->Arg(2048);

// A D3 leaf's per-reading model work in the perf benchmark's d3_1d shape:
// |W| = 10000, |R| = Arg, the default estimator age, the paper's
// 3-Gaussian mixture; one Observe + Estimator() per iteration. The sample
// changes about once every ten readings, and each change costs one
// rebuild (rebuilds_per_op); allocs_per_rebuild is the rebuild's O(d)
// vector count.
void BM_DensityModelRebuild1d(benchmark::State& state) {
  DensityModelConfig cfg;
  cfg.dimensions = 1;
  cfg.window_size = 10000;
  cfg.sample_size = static_cast<size_t>(state.range(0));
  DensityModel model(cfg, Rng(20));
  SyntheticMixtureStream stream(SyntheticOptions{}, Rng(21));
  for (size_t i = 0; i < cfg.window_size; ++i) model.Observe(stream.Next());
  model.Estimator();
  std::vector<Point> readings(4096);
  for (Point& p : readings) p = stream.Next();
  obs::Counter* rebuilds = obs::MetricsRegistry::Global().GetCounter(
      "core.density_model.estimator_rebuilds");
  const uint64_t rebuilds_before = rebuilds->value();
  uint64_t allocs = 0;
  size_t next = 0;
  for (auto _ : state) {
    model.Observe(readings[next]);
    next = (next + 1) % readings.size();
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(&model.Estimator());
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
  }
  const double rebuilt =
      static_cast<double>(rebuilds->value() - rebuilds_before);
  state.counters["rebuilds_per_op"] =
      rebuilt /
      static_cast<double>(state.iterations() > 0 ? state.iterations() : 1);
  state.counters["allocs_per_rebuild"] =
      static_cast<double>(allocs) / (rebuilt > 0.0 ? rebuilt : 1.0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DensityModelRebuild1d)->Arg(500);

// A fleet of sensors' per-reading model work: DensityModel::Observe round
// robin over 1,000 warmed 1-d models, as the simulator feeds its leaves,
// at traffic_768's leaf sizes (|W| = 1024, |R| = 102) and d3_1d's
// (|W| = 10000, |R| = 500). Every call touches a different model, so the
// time per iteration (ns per reading) includes the cache misses that one
// warm model hides; resident_bytes_per_model is the fleet's mean
// DensityModel::ResidentBytes(), which scripts/bench.sh caps at traffic_768's
// sizes. No estimator is built (traffic_768 runs with detection off).
void BM_FleetObserve(benchmark::State& state) {
  constexpr size_t kModels = 1000;
  struct Fleet {
    size_t window = 0, sample = 0;
    std::vector<std::unique_ptr<DensityModel>> models;
  };
  // One fleet at a time, kept across the calls that size the run.
  static std::unique_ptr<Fleet> fleet;
  const size_t window = static_cast<size_t>(state.range(0));
  const size_t sample = static_cast<size_t>(state.range(1));
  Rng values(23);
  std::vector<double> readings(4096);
  for (double& x : readings) x = Clamp(values.Gaussian(0.4, 0.05), 0.0, 1.0);
  Point p(1);  // reused so feeding itself does not allocate
  size_t next = 0;
  if (!fleet || fleet->window != window || fleet->sample != sample) {
    fleet.reset();  // free the previous fleet before building the next
    fleet = std::make_unique<Fleet>();
    fleet->window = window;
    fleet->sample = sample;
    DensityModelConfig cfg;
    cfg.window_size = window;
    cfg.sample_size = sample;
    Rng seeds(22);
    for (size_t m = 0; m < kModels; ++m) {
      fleet->models.push_back(
          std::make_unique<DensityModel>(cfg, seeds.Split()));
    }
    // One window plus perf_bench's settle rounds, round robin.
    for (size_t r = 0; r < window + 256; ++r) {
      for (const auto& model : fleet->models) {
        p[0] = readings[next];
        next = (next + 1) % readings.size();
        model->Observe(p);
      }
    }
  }
  size_t m = 0;
  for (auto _ : state) {
    p[0] = readings[next];
    next = (next + 1) % readings.size();
    benchmark::DoNotOptimize(fleet->models[m]->Observe(p));
    m = m + 1 == kModels ? 0 : m + 1;
  }
  size_t bytes = 0;
  for (const auto& model : fleet->models) bytes += model->ResidentBytes();
  state.counters["resident_bytes_per_model"] =
      static_cast<double>(bytes) / static_cast<double>(kModels);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetObserve)
    ->ArgNames({"W", "R"})
    ->Args({1024, 102})
    ->Args({10000, 500});

// --- obs layer overhead -----------------------------------------------------

void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench.obs.counter");
  for (auto _ : state) {
    counter->Increment();
    benchmark::ClobberMemory();  // one store per event, not one per loop
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram* hist = obs::MetricsRegistry::Global().GetHistogram(
      "bench.obs.hist", obs::LatencyBoundariesNs());
  double value = 16.0;
  for (auto _ : state) {
    hist->Record(value);
    value = value < 1e8 ? value * 1.7 : 16.0;  // sweep the buckets
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

// The acceptance gate for instrumenting hot paths: with timing and tracing
// at their defaults (off), a full instrumentation point — counter, scoped
// timer, trace span — adds zero allocations per event (scripts/bench.sh
// fails when allocs_per_op is not 0).
void BM_ObsDisabledTraceSpan(benchmark::State& state) {
  obs::Histogram* hist = obs::MetricsRegistry::Global().GetHistogram(
      "bench.obs.disabled_ns", obs::LatencyBoundariesNs());
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench.obs.disabled_events");
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const obs::ScopedTimer timer(hist);
    const obs::TraceSpan span("bench.disabled", obs::kTraceNoNode, 0.0);
    counter->Increment();
    benchmark::ClobberMemory();
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() > 0 ? state.iterations() : 1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsDisabledTraceSpan);

// The flight recorder's cost contract (obs/flight_recorder.h): disabled —
// the shipped default — Record() is one flag load and nothing else.
// allocs_per_op must read 0 (scripts/bench.sh fails otherwise).
void BM_ObsDisabledFlightRecorder(benchmark::State& state) {
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  int64_t vt = 0;
  for (auto _ : state) {
    obs::FlightRecorder::Record(/*node=*/3, obs::FlightEventKind::kSend,
                                static_cast<double>(vt++), /*a=*/7,
                                /*b=*/2, /*value=*/1.5);
    benchmark::ClobberMemory();
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() > 0 ? state.iterations() : 1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsDisabledFlightRecorder);

}  // namespace

BENCHMARK_MAIN();
