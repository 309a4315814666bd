#include "tcp/bic.hpp"

#include <gtest/gtest.h>

#include "cc_test_util.hpp"

namespace cebinae {
namespace {

constexpr std::uint32_t kMss = kMssBytes;

void grow_to(Bic& cc, std::uint64_t target_bytes) {
  while (cc.cwnd_bytes() < target_bytes) {
    cc.on_ack(make_ack(Seconds(1), 2 * kMss, Milliseconds(100)));
  }
}

TEST(Bic, SlowStartDoubles) {
  Bic cc;
  const std::uint64_t before = cc.cwnd_bytes();
  feed_round(cc, Seconds(1), Milliseconds(100), kMss);
  EXPECT_EQ(cc.cwnd_bytes(), 2 * before);
}

TEST(Bic, LossReducesByBeta08) {
  Bic cc;
  grow_to(cc, 100ull * kMss);
  const std::uint64_t before = cc.cwnd_bytes();
  cc.on_loss(Seconds(2), before);
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 0.8 * static_cast<double>(before),
              static_cast<double>(kMss));
}

TEST(Bic, BinarySearchHalvesDistancePerRound) {
  Bic cc;
  grow_to(cc, 100ull * kMss);
  cc.on_loss(Seconds(2), cc.cwnd_bytes());  // w_max=100, cwnd=80
  const double w_max = cc.w_max_segments();
  const double cwnd0 = static_cast<double>(cc.cwnd_bytes()) / kMss;
  Time now = Seconds(3);
  now = feed_round(cc, now, Milliseconds(100), kMss);
  const double cwnd1 = static_cast<double>(cc.cwnd_bytes()) / kMss;
  // One round closes a large fraction of the distance to w_max. (The per-ACK
  // formulation, like Linux's, recomputes the midpoint as the window grows,
  // so a round closes 1-e^{-1/2} ~ 39% of the gap rather than exactly half.)
  const double closed = (cwnd1 - cwnd0) / (w_max - cwnd0);
  EXPECT_GT(closed, 0.3);
  EXPECT_LT(closed, 0.55);
}

TEST(Bic, ConvergesToWmax) {
  Bic cc;
  grow_to(cc, 100ull * kMss);
  cc.on_loss(Seconds(2), cc.cwnd_bytes());
  const double w_max = cc.w_max_segments();
  Time now = Seconds(3);
  // Binary search halves the distance each round; 7 rounds from 80 toward
  // 100 lands within 2 segments (before max-probing takes over).
  for (int i = 0; i < 7; ++i) now = feed_round(cc, now, Milliseconds(100), kMss);
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()) / kMss, w_max, 2.0);
}

TEST(Bic, IncrementCappedAtSmax) {
  Bic cc;
  grow_to(cc, 400ull * kMss);
  cc.on_loss(Seconds(2), cc.cwnd_bytes());  // distance to w_max = 80 segments
  const std::uint64_t before = cc.cwnd_bytes();
  Time now = Seconds(3);
  now = feed_round(cc, now, Milliseconds(100), kMss);
  // Even with 80 segments of distance, one round adds at most Smax=16.
  EXPECT_LE(cc.cwnd_bytes() - before, 17ull * kMss);
}

TEST(Bic, MaxProbingBeyondWmax) {
  Bic cc;
  grow_to(cc, 100ull * kMss);
  cc.on_loss(Seconds(2), cc.cwnd_bytes());
  const double w_max = cc.w_max_segments();
  Time now = Seconds(3);
  for (int i = 0; i < 40; ++i) now = feed_round(cc, now, Milliseconds(100), kMss);
  // Without further loss, BIC probes beyond the old maximum.
  EXPECT_GT(static_cast<double>(cc.cwnd_bytes()) / kMss, w_max + 1.0);
}

TEST(Bic, FastConvergenceReducesWmax) {
  Bic cc;
  grow_to(cc, 100ull * kMss);
  cc.on_loss(Seconds(2), cc.cwnd_bytes());
  const double w_max_1 = cc.w_max_segments();
  cc.on_loss(Seconds(3), cc.cwnd_bytes());  // cwnd (80) < w_max (100)
  EXPECT_LT(cc.w_max_segments(), w_max_1);
}

TEST(Bic, SmallWindowsGrowLikeReno) {
  Bic cc;
  cc.on_loss(Seconds(1), cc.cwnd_bytes());  // 10 -> 8 segments, below low_window
  const std::uint64_t before = cc.cwnd_bytes();
  Time now = Seconds(2);
  now = feed_round(cc, now, Milliseconds(100), kMss);
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes() - before), static_cast<double>(kMss),
              static_cast<double>(kMss) * 0.5);
}

TEST(Bic, RtoCollapses) {
  Bic cc;
  grow_to(cc, 50ull * kMss);
  cc.on_rto(Seconds(5));
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
}

}  // namespace
}  // namespace cebinae
