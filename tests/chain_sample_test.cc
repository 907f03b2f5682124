#include "stream/chain_sample.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/snapshot.h"
#include "util/flat_points.h"
#include "util/rng.h"

namespace sensord {
namespace {

TEST(ChainSampleTest, FirstElementSeedsAllChains) {
  ChainSample cs(5, 10, Rng(1));
  EXPECT_TRUE(cs.Add({0.7}));
  EXPECT_TRUE(cs.seeded());
  const auto snap = cs.Snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (const Point& p : snap) EXPECT_DOUBLE_EQ(p[0], 0.7);
}

TEST(ChainSampleTest, SnapshotEmptyBeforeFirstAdd) {
  ChainSample cs(4, 10, Rng(2));
  EXPECT_TRUE(cs.Snapshot().empty());
  EXPECT_FALSE(cs.seeded());
}

TEST(ChainSampleTest, ActiveElementsAlwaysFromCurrentWindow) {
  const size_t window = 50;
  ChainSample cs(8, window, Rng(3));
  std::vector<double> history;
  for (int i = 0; i < 2000; ++i) {
    const double v = static_cast<double>(i);
    history.push_back(v);
    cs.Add({v});
    // Every active element must be one of the last `window` values.
    for (size_t c = 0; c < cs.sample_size(); ++c) {
      const double active = cs.ActiveElement(c)[0];
      EXPECT_GE(active, std::max(0.0, v - static_cast<double>(window) + 1));
      EXPECT_LE(active, v);
    }
  }
}

TEST(ChainSampleTest, SampleIsUniformOverWindow) {
  // Feed values equal to (arrival index mod window); after warm-up each
  // residue should be sampled roughly uniformly across many snapshots.
  const size_t window = 20;
  ChainSample cs(10, window, Rng(4));
  std::map<int, int> hits;
  for (int i = 0; i < 20000; ++i) {
    cs.Add({static_cast<double>(i % window) / window});
    if (i > 1000) {
      for (size_t c = 0; c < cs.sample_size(); ++c) {
        ++hits[static_cast<int>(cs.ActiveElement(c)[0] * window + 0.5)];
      }
    }
  }
  double total = 0;
  for (const auto& [k, v] : hits) total += v;
  const double expected = total / static_cast<double>(window);
  for (const auto& [k, v] : hits) {
    EXPECT_NEAR(v, expected, expected * 0.15)
        << "residue " << k << " over/under-sampled";
  }
}

TEST(ChainSampleTest, InsertionRateMatchesTheory) {
  // In steady state a given chain restarts with probability 1/W per
  // arrival, so Add() returns true with P = 1 - (1 - 1/W)^R.
  const size_t window = 1000, sample = 100;
  ChainSample cs(sample, window, Rng(5));
  Rng values(6);
  int insertions = 0;
  const int warm = 2000, measured = 20000;
  for (int i = 0; i < warm + measured; ++i) {
    const bool in = cs.Add({values.UniformDouble()});
    if (i >= warm) insertions += in ? 1 : 0;
  }
  const double p_theory =
      1.0 - std::pow(1.0 - 1.0 / static_cast<double>(window), sample);
  const double p_measured = static_cast<double>(insertions) / measured;
  EXPECT_NEAR(p_measured, p_theory, 0.02);
}

TEST(ChainSampleTest, VersionAdvancesOnSampleChange) {
  ChainSample cs(4, 10, Rng(7));
  const uint64_t v0 = cs.version();
  cs.Add({0.1});
  EXPECT_GT(cs.version(), v0);  // seeding changes the active sample
}

TEST(ChainSampleTest, VersionStableWhenSampleUnchanged) {
  ChainSample cs(2, 1000, Rng(8));
  Rng values(9);
  cs.Add({0.5});
  uint64_t changes = 0, adds = 10000;
  uint64_t prev = cs.version();
  for (uint64_t i = 0; i < adds; ++i) {
    cs.Add({values.UniformDouble()});
    if (cs.version() != prev) ++changes;
    prev = cs.version();
  }
  // With W=1000 and 2 chains, the active set changes rarely (~2/1000 per
  // arrival for restarts plus ~2/1000 for expiries).
  EXPECT_LT(changes, adds / 50);
  EXPECT_GT(changes, 0u);
}

TEST(ChainSampleTest, StoredElementsStaysNearSampleSize) {
  const size_t sample = 50;
  ChainSample cs(sample, 500, Rng(10));
  Rng values(11);
  for (int i = 0; i < 5000; ++i) cs.Add({values.UniformDouble()});
  // Expected chain length is O(1); in practice well below 4 per chain.
  EXPECT_GE(cs.StoredElements(), sample);
  EXPECT_LE(cs.StoredElements(), sample * 6);
}

TEST(ChainSampleTest, MemoryBytesAccounting) {
  ChainSample cs(3, 10, Rng(12));
  cs.Add({0.1, 0.2});  // d = 2
  // 3 stored entries (one per chain) x (2 coords + 1 index) + 3 pending
  // replacement indices = 12 numbers.
  EXPECT_EQ(cs.MemoryBytes(2, 2), 12u * 2u);
}

TEST(ChainSampleTest, PrewarmStartsAtSteadyStateRate) {
  const size_t window = 1000, sample = 100;
  ChainSample cs(sample, window, Rng(13));
  cs.PrewarmToSteadyState();
  EXPECT_EQ(cs.total_seen(), window);
  Rng values(14);
  cs.Add({values.UniformDouble()});  // seeds
  int insertions = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    insertions += cs.Add({values.UniformDouble()}) ? 1 : 0;
  }
  const double p_theory =
      1.0 - std::pow(1.0 - 1.0 / static_cast<double>(window), sample);
  EXPECT_NEAR(static_cast<double>(insertions) / n, p_theory, 0.02);
}

TEST(ChainSampleTest, MultiDimensionalValuesSupported) {
  ChainSample cs(4, 20, Rng(15));
  Rng values(16);
  for (int i = 0; i < 500; ++i) {
    cs.Add({values.UniformDouble(), values.UniformDouble(),
            values.UniformDouble()});
  }
  for (const Point& p : cs.Snapshot()) EXPECT_EQ(p.size(), 3u);
}

TEST(ChainSampleTest, WindowOfOneAlwaysHoldsLatest) {
  ChainSample cs(3, 1, Rng(17));
  for (int i = 0; i < 100; ++i) {
    cs.Add({static_cast<double>(i)});
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(cs.ActiveElement(c)[0], static_cast<double>(i));
    }
  }
}

// Chi-squared goodness-of-fit on the inclusion probability: Babcock, Datar
// and Motwani's guarantee is that the active element of each chain is
// uniform over the *positions* of the current window, i.e. every age in
// [0, W) is equally likely. Feeding the arrival index as the value makes
// the age of each sampled element directly observable. Snapshots are taken
// 2W arrivals apart (past the expected chain lifetime) so consecutive
// observations are close to independent, and the statistic is pooled over
// chains and snapshots. With df = W - 1 = 15 the 99.9th percentile of a
// chi-squared distribution is 37.7; a correct sampler with this fixed seed
// sits far below it, while a sampler biased toward fresh or stale
// elements (the classic chain-sampling implementation bug) blows past it.
TEST(ChainSampleTest, InclusionProbabilityIsUniformChiSquared) {
  const size_t kWindow = 16;
  const size_t kSample = 8;
  const int kSnapshots = 400;
  ChainSample cs(kSample, kWindow, Rng(20060915));

  uint64_t arrivals = 0;
  const auto feed = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      cs.Add({static_cast<double>(arrivals)});
      ++arrivals;
    }
  };

  feed(5 * kWindow);  // warm-up: past the early-stream elevated rates

  std::vector<double> age_counts(kWindow, 0.0);
  for (int s = 0; s < kSnapshots; ++s) {
    feed(2 * kWindow);
    for (size_t c = 0; c < cs.sample_size(); ++c) {
      const double value = cs.ActiveElement(c)[0];
      const uint64_t age =
          (arrivals - 1) - static_cast<uint64_t>(value + 0.5);
      ASSERT_LT(age, kWindow) << "active element fell out of the window";
      age_counts[age] += 1.0;
    }
  }

  const double total = static_cast<double>(kSnapshots) * kSample;
  const double expected = total / static_cast<double>(kWindow);
  double chi2 = 0.0;
  for (double observed : age_counts) {
    const double diff = observed - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 37.7) << "age distribution over the window is not uniform";

  // Guard against degenerate ways of passing chi-squared on aggregate: every
  // age must actually occur, and no age may dominate.
  for (size_t age = 0; age < kWindow; ++age) {
    EXPECT_GT(age_counts[age], 0.5 * expected) << "age " << age;
    EXPECT_LT(age_counts[age], 1.5 * expected) << "age " << age;
  }
}

TEST(ChainSampleTest, SnapshotToMatchesSnapshot) {
  ChainSample cs(16, 200, Rng(21));
  Rng values(22);
  FlatPoints flat;
  // Before the first Add the flat snapshot is empty with zero dimensions.
  cs.SnapshotTo(&flat);
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.dimensions(), 0u);
  for (int i = 0; i < 3000; ++i) {
    cs.Add({values.UniformDouble(), values.UniformDouble()});
    if (i % 500 == 0) {
      cs.SnapshotTo(&flat);
      EXPECT_EQ(flat, FlatPoints::FromPoints(cs.Snapshot()));
    }
  }
  // A warm buffer is reused: repeated snapshots into the same FlatPoints
  // must not grow its backing storage.
  cs.SnapshotTo(&flat);
  const double* before = flat.data().data();
  cs.Add({0.5, 0.5});
  cs.SnapshotTo(&flat);
  EXPECT_EQ(flat.data().data(), before);
  EXPECT_EQ(flat, FlatPoints::FromPoints(cs.Snapshot()));
}

// Replaying each Add()'s change report on a copy of the active sample must
// reproduce the sample, step for step, without disturbing the sampler: a
// twin fed the same stream without reports stays identical. Distinct
// values make every row one stream element, so the test can also see rows
// that arrive and depart within a single Add (an expiry promotes a row, a
// restart of that chain replaces it).
TEST(ChainSampleTest, ChangeReportsReplayToTheActiveSample) {
  ChainSample cs(40, 48, Rng(31));
  ChainSample twin(40, 48, Rng(31));
  Rng values(32);
  SampleChanges changes;
  std::vector<double> replayed;  // the active sample, kept sorted
  size_t arrived_then_departed = 0;
  for (int i = 0; i < 4000; ++i) {
    const double v = values.UniformDouble();
    EXPECT_EQ(cs.Add({v}, &changes), twin.Add({v}));
    if (i == 0) {
      EXPECT_TRUE(changes.departed.empty());
      ASSERT_EQ(changes.arrived.size(), 40u);
    } else {
      ASSERT_EQ(changes.departed.size(), changes.arrived.size());
    }
    EXPECT_EQ(changes.arrived.dimensions(), 1u);
    for (size_t k = 0; k < changes.arrived.size(); ++k) {
      if (k < changes.departed.size()) {
        const double out = changes.departed.At(k, 0);
        const auto it = std::find(replayed.begin(), replayed.end(), out);
        ASSERT_NE(it, replayed.end()) << "departed row not active, step " << i;
        replayed.erase(it);
        for (size_t j = 0; j < k; ++j) {
          arrived_then_departed += changes.arrived.At(j, 0) == out;
        }
      }
      const double in = changes.arrived.At(k, 0);
      replayed.insert(std::upper_bound(replayed.begin(), replayed.end(), in),
                      in);
    }
    std::vector<double> active;
    for (const Point& p : cs.Snapshot()) active.push_back(p[0]);
    std::sort(active.begin(), active.end());
    ASSERT_EQ(replayed, active) << "step " << i;
    ASSERT_EQ(cs.Snapshot(), twin.Snapshot());
  }
  EXPECT_GT(arrived_then_departed, 0u);
}

TEST(ChainSampleTest, DeterministicGivenSeed) {
  ChainSample a(5, 50, Rng(18)), b(5, 50, Rng(18));
  Rng va(19), vb(19);
  for (int i = 0; i < 1000; ++i) {
    const bool ia = a.Add({va.UniformDouble()});
    const bool ib = b.Add({vb.UniformDouble()});
    EXPECT_EQ(ia, ib);
  }
  const auto sa = a.Snapshot(), sb = b.Snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i][0], sb[i][0]);
  }
}

// The pending index holds each chain's live expiry and replacement
// registrations plus the replacement registrations that restarts orphaned
// within the last |W| arrivals; a restart unlinks its old expiry
// registration at once. DESIGN.md §14 bounds the expected total by
// (2 + H_W)·|R|, H_W the W-th harmonic number: the first window restarts
// each chain H_W times in expectation, and no later window restarts more.
// Keeping the dead expiries until their keys come due held 12–16 |R|
// entries at these sizes. The bookkeeping does not look at the values, so
// the sweep varies seeds, not streams.
TEST(ChainSampleTest, PendingPoolStaysWithinItsBound) {
  struct Size {
    size_t window, sample;
  };
  for (const Size size : {Size{1024, 102}, Size{4096, 512}, Size{10000, 500}}) {
    double harmonic = 0.0;
    for (size_t k = 1; k <= size.window; ++k) {
      harmonic += 1.0 / static_cast<double>(k);
    }
    const double bound = (2.0 + harmonic) * static_cast<double>(size.sample);
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      ChainSample cs(size.sample, size.window, Rng(seed));
      for (size_t i = 0; i < 3 * size.window; ++i) {
        cs.Add({static_cast<double>(i)});
      }
      EXPECT_LE(static_cast<double>(cs.PendingPoolSize()), bound)
          << "|W| " << size.window << " |R| " << size.sample << " seed "
          << seed << ": " << cs.PendingPoolSize() << " entries";
    }
  }
}

// Re-encodes a ChainSample payload with a dead expiry registration for
// chain `chain` at arrival `key` placed first in the expiry section, so it
// precedes any live registration of the same key — the shape of checkpoints
// written while restarts still left their expiry registrations behind.
std::vector<uint8_t> WithDeadExpiry(const std::vector<uint8_t>& bytes,
                                    uint64_t key, uint32_t chain,
                                    uint32_t version) {
  auto opened = SnapshotReader::Open(bytes, version);
  EXPECT_TRUE(opened.ok());
  SnapshotReader& in = opened.value();
  SnapshotWriter out;
  out.PutU64(in.TakeU64());  // window
  out.PutU64(in.TakeU64());  // clock
  out.PutU64(in.TakeU64());  // version
  out.PutBool(in.TakeBool());
  out.PutRng(in.TakeRng());
  const uint32_t chains = in.TakeU32();
  out.PutU32(chains);
  for (uint32_t c = 0; c < chains; ++c) {
    out.PutU64(in.TakeU64());  // next replacement index
    const uint32_t rows = in.TakeU32();
    out.PutU32(rows);
    for (uint32_t r = 0; r < rows; ++r) {
      out.PutU64(in.TakeU64());
      out.PutPoint(in.TakePoint());
    }
  }
  for (int kind = 0; kind < 2; ++kind) {
    const uint32_t buckets = in.TakeU32();
    out.PutU32(buckets + (kind == 1 ? 1 : 0));
    if (kind == 1) {
      out.PutU64(key);
      out.PutU32(1);
      out.PutU32(chain);
    }
    for (uint32_t b = 0; b < buckets; ++b) {
      out.PutU64(in.TakeU64());
      const uint32_t entries = in.TakeU32();
      out.PutU32(entries);
      for (uint32_t e = 0; e < entries; ++e) out.PutU32(in.TakeU32());
    }
  }
  EXPECT_TRUE(in.AtEnd());
  return std::move(out).Finish(version);
}

TEST(ChainSampleTest, RestoreAcceptsDeadExpiryRegistrations) {
  constexpr uint32_t kVersion = 1;
  const size_t kSample = 64, kWindow = 200;
  ChainSample twin(kSample, kWindow, Rng(21));
  uint64_t i = 0;
  for (; i < 150; ++i) twin.Add({static_cast<double>(i)});

  SnapshotWriter writer;
  twin.Serialize(&writer);
  std::vector<uint8_t> bytes = std::move(writer).Finish(kVersion);
  // Values are arrival indices, so a chain's front expires at its value
  // + |W|. Inject a dead registration for each of a few chains, at a key
  // before its live one: one due at the next arrival, one mid-window.
  size_t injected = 0;
  for (uint32_t c = 0; c < 4; ++c) {
    const uint64_t live = static_cast<uint64_t>(twin.ActiveElement(c)[0]) +
                          kWindow;
    for (const uint64_t key : {i, i + kWindow / 2}) {
      if (key >= live) continue;
      bytes = WithDeadExpiry(bytes, key, c, kVersion);
      ++injected;
    }
  }
  ASSERT_GT(injected, 0u);

  ChainSample restored(kSample, kWindow, Rng(99));
  auto reader = SnapshotReader::Open(bytes, kVersion);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(restored.Restore(&reader.value()));
  EXPECT_TRUE(reader.value().AtEnd());
  ASSERT_EQ(restored.Snapshot(), twin.Snapshot());
  for (const uint64_t end = i + kWindow; i < end; ++i) {
    const Point v{static_cast<double>(i)};
    ASSERT_EQ(restored.Add(v), twin.Add(v)) << "arrival " << i;
    ASSERT_EQ(restored.version(), twin.version()) << "arrival " << i;
    ASSERT_EQ(restored.Snapshot(), twin.Snapshot()) << "arrival " << i;
  }
}

}  // namespace
}  // namespace sensord
