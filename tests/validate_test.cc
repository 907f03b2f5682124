#include "data/validate.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/faulty_sensor.h"
#include "util/math_utils.h"

namespace sensord {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(IngestValidatorTest, DefaultPolicyAcceptsEveryFiniteReading) {
  IngestValidator validator{IngestPolicy{}};
  EXPECT_EQ(validator.Check({0.5}), IngestVerdict::kAccept);
  EXPECT_EQ(validator.Check({-1e308, 1e308}), IngestVerdict::kAccept);
  EXPECT_EQ(validator.Check({0.0, 0.0, 0.0}), IngestVerdict::kAccept);
  EXPECT_EQ(validator.accepted(), 3u);
  EXPECT_EQ(validator.rejected(), 0u);
}

TEST(IngestValidatorTest, NonFiniteCoordinatesAreRejected) {
  IngestValidator validator{IngestPolicy{}};
  EXPECT_EQ(validator.Check({kNaN}), IngestVerdict::kNonFinite);
  EXPECT_EQ(validator.Check({0.5, kInf}), IngestVerdict::kNonFinite);
  EXPECT_EQ(validator.Check({-kInf, 0.5}), IngestVerdict::kNonFinite);
  EXPECT_EQ(validator.accepted(), 0u);
  EXPECT_EQ(validator.rejected(), 3u);
}

TEST(IngestValidatorTest, RangePolicyIsClosedPerCoordinate) {
  IngestPolicy policy;
  policy.min_value = 0.0;
  policy.max_value = 1.0;
  IngestValidator validator(policy);
  EXPECT_EQ(validator.Check({0.0}), IngestVerdict::kAccept);  // boundaries in
  EXPECT_EQ(validator.Check({1.0}), IngestVerdict::kAccept);
  EXPECT_EQ(validator.Check({0.5, 0.9}), IngestVerdict::kAccept);
  EXPECT_EQ(validator.Check({-0.001}), IngestVerdict::kOutOfRange);
  EXPECT_EQ(validator.Check({0.5, 1.001}), IngestVerdict::kOutOfRange);
  // Non-finite wins over range when both checks would fire.
  EXPECT_EQ(validator.Check({kInf}), IngestVerdict::kNonFinite);
  EXPECT_EQ(validator.accepted(), 3u);
  EXPECT_EQ(validator.rejected(), 3u);
}

TEST(StuckSensorDetectorTest, QuarantinesAfterThresholdRun) {
  StuckSensorDetector stuck(/*run_threshold=*/3);
  // A run of exactly `threshold` identical readings is still legitimate.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(stuck.ShouldQuarantine({0.7})) << "repeat " << i;
  }
  EXPECT_FALSE(stuck.quarantined());
  // The threshold-plus-first repeat trips the quarantine, and it holds.
  EXPECT_TRUE(stuck.ShouldQuarantine({0.7}));
  EXPECT_TRUE(stuck.quarantined());
  EXPECT_TRUE(stuck.ShouldQuarantine({0.7}));
  EXPECT_EQ(stuck.rejected(), 2u);
  // The transducer moving again lifts the quarantine immediately.
  EXPECT_FALSE(stuck.ShouldQuarantine({0.71}));
  EXPECT_FALSE(stuck.quarantined());
}

TEST(StuckSensorDetectorTest, ZeroThresholdDisablesTheCheck) {
  StuckSensorDetector stuck(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(stuck.ShouldQuarantine({0.5}));
  }
  EXPECT_EQ(stuck.rejected(), 0u);
}

TEST(StuckSensorDetectorTest, RunTrackingIsPerExactValue) {
  StuckSensorDetector stuck(2);
  EXPECT_FALSE(stuck.ShouldQuarantine({0.5}));
  EXPECT_FALSE(stuck.ShouldQuarantine({0.5}));
  EXPECT_FALSE(stuck.ShouldQuarantine({0.6}));  // run broken, counter restarts
  EXPECT_FALSE(stuck.ShouldQuarantine({0.6}));
  EXPECT_TRUE(stuck.ShouldQuarantine({0.6}));
  // Multi-dimensional readings compare coordinate-wise.
  StuckSensorDetector stuck2(1);
  EXPECT_FALSE(stuck2.ShouldQuarantine({0.1, 0.2}));
  EXPECT_TRUE(stuck2.ShouldQuarantine({0.1, 0.2}));
  EXPECT_FALSE(stuck2.ShouldQuarantine({0.1, 0.3}));
}

}  // namespace
}  // namespace sensord
