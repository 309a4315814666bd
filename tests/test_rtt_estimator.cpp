#include "tcp/rtt_estimator.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

TEST(RttEstimator, InitialRtoIsOneSecond) {
  RttEstimator est;
  EXPECT_EQ(est.rto(), Seconds(1));
  EXPECT_FALSE(est.has_sample());
}

TEST(RttEstimator, FirstSampleInitializesPerRfc6298) {
  RttEstimator est;
  est.on_sample(Milliseconds(100));
  EXPECT_EQ(est.srtt(), Milliseconds(100));
  EXPECT_EQ(est.rttvar(), Milliseconds(50));
  // RTO = SRTT + 4*RTTVAR = 100 + 200 = 300 ms.
  EXPECT_EQ(est.rto(), Milliseconds(300));
}

TEST(RttEstimator, SmoothingFollowsRfcWeights) {
  RttEstimator est;
  est.on_sample(Milliseconds(100));
  est.on_sample(Milliseconds(200));
  // SRTT = 7/8*100 + 1/8*200 = 112.5 ms
  EXPECT_EQ(est.srtt().ns(), 112'500'000);
  // RTTVAR = 3/4*50 + 1/4*|200-100| = 62.5 ms
  EXPECT_EQ(est.rttvar().ns(), 62'500'000);
}

TEST(RttEstimator, ConvergesToSteadyRtt) {
  RttEstimator est;
  for (int i = 0; i < 100; ++i) est.on_sample(Milliseconds(80));
  EXPECT_NEAR(est.srtt().millis(), 80.0, 0.5);
  // With zero variance the floor keeps RTO at min_rto.
  EXPECT_EQ(est.rto(), Milliseconds(200));
}

TEST(RttEstimator, MinRtoFloorApplies) {
  RttEstimator est;
  est.on_sample(Milliseconds(10));  // RTO raw = 10 + 4*5 = 30 ms < 200 ms floor
  EXPECT_EQ(est.rto(), Milliseconds(200));
}

TEST(RttEstimator, BackoffDoublesAndClamps) {
  RttEstimator est;
  EXPECT_EQ(est.rto(), Seconds(1));
  for (int s : {2, 4, 8, 16, 32}) {
    est.backoff();
    EXPECT_EQ(est.rto(), Seconds(s));
  }
  est.backoff();
  EXPECT_EQ(est.rto(), Seconds(60));  // 64 s clamped to the ceiling
  est.backoff();
  EXPECT_EQ(est.rto(), Seconds(60));
}

TEST(RttEstimator, TracksMinimumRtt) {
  RttEstimator est;
  est.on_sample(Milliseconds(120));
  est.on_sample(Milliseconds(80));
  est.on_sample(Milliseconds(150));
  EXPECT_EQ(est.min_rtt(), Milliseconds(80));
}

TEST(RttEstimator, IgnoresNonPositiveSamples) {
  RttEstimator est;
  est.on_sample(Time::zero());
  est.on_sample(Milliseconds(-5));
  EXPECT_FALSE(est.has_sample());
  EXPECT_EQ(est.rto(), Seconds(1));
}

TEST(RttEstimator, VarianceRaisesRto) {
  RttEstimator est;
  // Oscillating RTTs: variance stays high, RTO well above SRTT.
  for (int i = 0; i < 50; ++i) {
    est.on_sample(Milliseconds(i % 2 == 0 ? 50 : 250));
  }
  EXPECT_GT(est.rto(), est.srtt());
  EXPECT_GT(est.rttvar(), Milliseconds(30));
}

}  // namespace
}  // namespace cebinae
