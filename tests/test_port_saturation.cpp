#include "core/port_saturation.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

// 100 Mbps port: 12.5 MB/s -> 1.25 MB per 100 ms interval.
constexpr std::uint64_t kRate = 100'000'000;
constexpr Time kInterval = Milliseconds(100);
constexpr std::uint64_t kIntervalBytes = 1'250'000;

TEST(PortSaturation, FullUtilizationIsSaturated) {
  PortSaturationDetector det(kRate, 0.01);
  EXPECT_TRUE(det.sample(kIntervalBytes, kInterval));
  EXPECT_NEAR(det.last_utilization(), 1.0, 1e-9);
}

TEST(PortSaturation, IdlePortIsUnsaturated) {
  PortSaturationDetector det(kRate, 0.01);
  EXPECT_FALSE(det.sample(0, kInterval));
  EXPECT_DOUBLE_EQ(det.last_utilization(), 0.0);
}

TEST(PortSaturation, ThresholdBoundaryExact) {
  PortSaturationDetector det(kRate, 0.01);
  // Exactly (1 - delta_p) of capacity: counts as saturated (>=).
  EXPECT_TRUE(det.sample(static_cast<std::uint64_t>(kIntervalBytes * 0.99), kInterval));
}

TEST(PortSaturation, JustBelowThresholdUnsaturated) {
  PortSaturationDetector det(kRate, 0.01);
  EXPECT_FALSE(det.sample(static_cast<std::uint64_t>(kIntervalBytes * 0.985), kInterval));
}

TEST(PortSaturation, DeltaIsDifferencedNotReset) {
  PortSaturationDetector det(kRate, 0.01);
  EXPECT_TRUE(det.sample(kIntervalBytes, kInterval));
  // No new traffic: the monotone counter's delta is zero.
  EXPECT_FALSE(det.sample(kIntervalBytes, kInterval));
  EXPECT_DOUBLE_EQ(det.last_utilization(), 0.0);
  // A full interval more on top of the absolute value is saturated again.
  EXPECT_TRUE(det.sample(2 * kIntervalBytes, kInterval));
}

TEST(PortSaturation, AccumulatesAcrossManyTransmits) {
  PortSaturationDetector det(kRate, 0.01);
  std::uint64_t tx_bytes = 0;
  for (int i = 0; i < 1000; ++i) tx_bytes += kIntervalBytes / 1000;
  EXPECT_TRUE(det.sample(tx_bytes, kInterval));
}

TEST(PortSaturation, LargerDeltaLowersBar) {
  PortSaturationDetector det(kRate, 0.20);
  EXPECT_TRUE(det.sample(static_cast<std::uint64_t>(kIntervalBytes * 0.85), kInterval));
}

class PortSaturationSweep : public ::testing::TestWithParam<double> {};

TEST_P(PortSaturationSweep, SaturationExactlyAtOneMinusDelta) {
  const double delta = GetParam();
  PortSaturationDetector det(kRate, delta);
  EXPECT_TRUE(
      det.sample(static_cast<std::uint64_t>(kIntervalBytes * (1.0 - delta) * 1.001), kInterval));

  PortSaturationDetector det2(kRate, delta);
  EXPECT_FALSE(
      det2.sample(static_cast<std::uint64_t>(kIntervalBytes * (1.0 - delta) * 0.98), kInterval));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PortSaturationSweep,
                         ::testing::Values(0.01, 0.02, 0.05, 0.10, 0.25, 0.50));

}  // namespace
}  // namespace cebinae
