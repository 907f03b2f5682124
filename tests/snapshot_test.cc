#include "core/snapshot.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/density_model.h"
#include "stream/chain_sample.h"
#include "stream/variance_sketch.h"
#include "util/rng.h"

namespace sensord {
namespace {

constexpr uint32_t kTestVersion = 7;

TEST(SnapshotFrameTest, FieldsRoundTripInOrder) {
  SnapshotWriter writer;
  writer.PutU8(0xAB);
  writer.PutU32(0xDEADBEEF);
  writer.PutU64(0x0123456789ABCDEFULL);
  writer.PutBool(true);
  writer.PutDouble(-1.5e-300);
  writer.PutPoint({0.25, 0.5, 0.75});
  writer.PutDoubles({1.0, 2.0});
  const std::vector<uint8_t> bytes = std::move(writer).Finish(kTestVersion);

  auto reader = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  SnapshotReader& r = reader.value();
  EXPECT_EQ(r.TakeU8(), 0xAB);
  EXPECT_EQ(r.TakeU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.TakeU64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.TakeBool());
  EXPECT_DOUBLE_EQ(r.TakeDouble(), -1.5e-300);
  EXPECT_EQ(r.TakePoint(), (Point{0.25, 0.5, 0.75}));
  EXPECT_EQ(r.TakeDoubles(), (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotFrameTest, RngStateRoundTripContinuesBitIdentically) {
  Rng original(123);
  (void)original.Gaussian(0.0, 1.0);  // leave a cached spare in the state
  SnapshotWriter writer;
  writer.PutRng(original);
  const std::vector<uint8_t> bytes = std::move(writer).Finish(kTestVersion);

  auto reader = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(reader.ok());
  Rng restored = reader.value().TakeRng();
  EXPECT_TRUE(reader.value().AtEnd());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.UniformUint64(1 << 30), restored.UniformUint64(1 << 30));
    EXPECT_DOUBLE_EQ(original.Gaussian(2.0, 3.0), restored.Gaussian(2.0, 3.0));
  }
}

std::vector<uint8_t> SmallSnapshot() {
  SnapshotWriter writer;
  writer.PutU64(42);
  return std::move(writer).Finish(kTestVersion);
}

TEST(SnapshotFrameTest, EveryCorruptedByteIsRejected) {
  const std::vector<uint8_t> good = SmallSnapshot();
  ASSERT_TRUE(SnapshotReader::Open(good, kTestVersion).ok());
  for (size_t i = 0; i < good.size(); ++i) {
    std::vector<uint8_t> bad = good;
    bad[i] ^= 0x01;
    EXPECT_FALSE(SnapshotReader::Open(bad, kTestVersion).ok())
        << "flipped byte " << i << " must not validate";
  }
}

TEST(SnapshotFrameTest, TruncationAndVersionMismatchAreRejected) {
  const std::vector<uint8_t> good = SmallSnapshot();
  for (size_t len = 0; len < good.size(); ++len) {
    const std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    EXPECT_FALSE(SnapshotReader::Open(cut, kTestVersion).ok())
        << "prefix of " << len << " bytes must not validate";
  }
  EXPECT_FALSE(SnapshotReader::Open(good, kTestVersion + 1).ok());
  EXPECT_FALSE(SnapshotReader::Open({}, kTestVersion).ok());
}

TEST(SnapshotFrameTest, ReadPastPayloadEndFailsSafely) {
  const std::vector<uint8_t> bytes = SmallSnapshot();
  auto reader = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(reader.ok());
  SnapshotReader& r = reader.value();
  EXPECT_EQ(r.TakeU64(), 42u);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.TakeU32(), 0u);  // overrun: zero value, failed state
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.TakeDouble(), 0.0);  // stays failed
  EXPECT_FALSE(r.AtEnd());
}

// --- Component round trips. The essential property throughout: a restored
// component continues the stream *bit-for-bit* like the original, because
// amnesia-crash replay determinism rests on it.

TEST(ChainSampleSnapshotTest, RestoredSamplerContinuesBitIdentically) {
  const size_t kSampleSize = 32, kWindow = 100;
  ChainSample original(kSampleSize, kWindow, Rng(7));
  for (int i = 0; i < 250; ++i) {
    original.Add({static_cast<double>(i)});
  }

  SnapshotWriter writer;
  original.Serialize(&writer);
  const std::vector<uint8_t> bytes = std::move(writer).Finish(kTestVersion);

  ChainSample restored(kSampleSize, kWindow, Rng(999));  // seed irrelevant
  auto reader = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(restored.Restore(&reader.value()));
  EXPECT_TRUE(reader.value().AtEnd());

  EXPECT_EQ(restored.total_seen(), original.total_seen());
  EXPECT_EQ(restored.version(), original.version());
  EXPECT_EQ(restored.Snapshot(), original.Snapshot());
  for (int i = 250; i < 600; ++i) {
    const Point v{static_cast<double>(i)};
    ASSERT_EQ(original.Add(v), restored.Add(v)) << "diverged at element " << i;
    ASSERT_EQ(original.Snapshot(), restored.Snapshot())
        << "diverged at element " << i;
  }
}

TEST(ChainSampleSnapshotTest, ConfigMismatchIsRejected) {
  ChainSample original(16, 50, Rng(3));
  for (int i = 0; i < 80; ++i) original.Add({1.0 * i});
  SnapshotWriter writer;
  original.Serialize(&writer);
  const std::vector<uint8_t> bytes = std::move(writer).Finish(kTestVersion);

  ChainSample wrong_window(16, 60, Rng(3));
  auto r1 = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(wrong_window.Restore(&r1.value()));

  ChainSample wrong_chains(17, 50, Rng(3));
  auto r2 = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(wrong_chains.Restore(&r2.value()));
}

// Chain sampling's contract is that every active element is uniform over
// the last |W| arrivals. A restore must not disturb that distribution: run
// the restored sampler well past the restore point and chi-square the
// active elements' arrival positions against uniform. With 256 independent
// chains over 8 bins the 99.9% critical value of chi2(7) is 24.3; a
// restore bug (e.g. re-drawn replacement indices biased toward the restore
// point) shifts whole chains into one bin and blows far past it.
TEST(ChainSampleSnapshotTest, RestoredInclusionProbabilityStaysUniform) {
  const size_t kSampleSize = 256, kWindow = 200;
  ChainSample sampler(kSampleSize, kWindow, Rng(11));
  for (int i = 0; i < 300; ++i) sampler.Add({static_cast<double>(i)});

  SnapshotWriter writer;
  sampler.Serialize(&writer);
  const std::vector<uint8_t> bytes = std::move(writer).Finish(kTestVersion);
  ChainSample restored(kSampleSize, kWindow, Rng(12345));
  auto reader = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(restored.Restore(&reader.value()));

  // Continue two full windows past the restore, then bin the sample.
  const int kLast = 700;
  for (int i = 300; i < kLast; ++i) restored.Add({static_cast<double>(i)});
  const std::vector<Point> sample = restored.Snapshot();
  ASSERT_EQ(sample.size(), kSampleSize);

  const size_t kBins = 8;
  std::vector<double> counts(kBins, 0.0);
  for (const Point& p : sample) {
    const double age = (kLast - 1) - p[0];  // 0 = newest arrival
    ASSERT_GE(age, 0.0);
    ASSERT_LT(age, static_cast<double>(kWindow)) << "stale element survived";
    counts[static_cast<size_t>(age) * kBins / kWindow] += 1.0;
  }
  const double expected = static_cast<double>(kSampleSize) / kBins;
  double chi2 = 0.0;
  for (double c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 24.3) << "restored sample is not uniform over the window";
}

TEST(VarianceSketchSnapshotTest, RestoredSketchContinuesBitIdentically) {
  VarianceSketch original(128, 0.1);
  Rng rng(21);
  for (int i = 0; i < 500; ++i) original.Add(rng.Gaussian(5.0, 2.0));

  SnapshotWriter writer;
  original.Serialize(&writer);
  const std::vector<uint8_t> bytes = std::move(writer).Finish(kTestVersion);

  VarianceSketch restored(128, 0.1);
  auto reader = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(restored.Restore(&reader.value()));
  EXPECT_TRUE(reader.value().AtEnd());

  EXPECT_EQ(restored.total_seen(), original.total_seen());
  EXPECT_EQ(restored.NumBuckets(), original.NumBuckets());
  EXPECT_DOUBLE_EQ(restored.Variance(), original.Variance());
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Gaussian(5.0, 2.0);
    original.Add(x);
    restored.Add(x);
    ASSERT_DOUBLE_EQ(original.Variance(), restored.Variance());
    ASSERT_EQ(original.NumBuckets(), restored.NumBuckets());
  }

  // Mismatched geometry is rejected.
  VarianceSketch wrong(64, 0.1);
  auto r2 = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(wrong.Restore(&r2.value()));
}

TEST(DensityModelSnapshotTest, RestoredModelContinuesBitIdentically) {
  DensityModelConfig config;
  config.dimensions = 1;
  config.window_size = 150;
  config.sample_size = 40;
  DensityModel original(config, Rng(41));
  Rng data(55);
  for (int i = 0; i < 400; ++i) {
    original.Observe({data.UniformDouble(0.0, 1.0)});
  }

  SnapshotWriter writer;
  original.Serialize(&writer);
  const std::vector<uint8_t> bytes = std::move(writer).Finish(kTestVersion);

  DensityModel restored(config, Rng(4242));
  auto reader = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(restored.Restore(&reader.value()));
  EXPECT_TRUE(reader.value().AtEnd());

  EXPECT_EQ(restored.total_seen(), original.total_seen());
  EXPECT_EQ(restored.sample().Snapshot(), original.sample().Snapshot());
  EXPECT_EQ(restored.BandwidthSpreads(), original.BandwidthSpreads());
  for (int i = 0; i < 300; ++i) {
    const Point v{data.UniformDouble(0.0, 1.0)};
    ASSERT_EQ(original.Observe(v), restored.Observe(v))
        << "insertion decision diverged at " << i;
    ASSERT_EQ(original.sample().Snapshot(), restored.sample().Snapshot());
  }
  ASSERT_TRUE(original.Ready());
  EXPECT_DOUBLE_EQ(restored.Estimator().Pdf({0.5}),
                   original.Estimator().Pdf({0.5}));
}

TEST(DensityModelSnapshotTest, DimensionMismatchIsRejected) {
  DensityModelConfig config;
  config.dimensions = 2;
  config.window_size = 50;
  config.sample_size = 10;
  DensityModel original(config, Rng(1));
  for (int i = 0; i < 60; ++i) original.Observe({0.1 * (i % 10), 0.5});
  SnapshotWriter writer;
  original.Serialize(&writer);
  const std::vector<uint8_t> bytes = std::move(writer).Finish(kTestVersion);

  DensityModelConfig other = config;
  other.dimensions = 3;
  DensityModel wrong(other, Rng(1));
  auto reader = SnapshotReader::Open(bytes, kTestVersion);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(wrong.Restore(&reader.value()));
}

}  // namespace
}  // namespace sensord
