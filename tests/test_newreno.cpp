#include "tcp/new_reno.hpp"

#include <gtest/gtest.h>

#include "cc_test_util.hpp"

namespace cebinae {
namespace {

constexpr std::uint32_t kMss = kMssBytes;

TEST(NewReno, InitialWindowIsTenSegments) {
  NewReno cc;
  EXPECT_EQ(cc.cwnd_bytes(), 10ull * kMss);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(NewReno, SlowStartDoublesPerRound) {
  NewReno cc;
  const std::uint64_t before = cc.cwnd_bytes();
  feed_round(cc, Seconds(1), Milliseconds(100), kMss);
  EXPECT_EQ(cc.cwnd_bytes(), 2 * before);
}

TEST(NewReno, LossHalvesWindowAndExitsSlowStart) {
  NewReno cc;
  feed_round(cc, Seconds(1), Milliseconds(100), kMss);
  const std::uint64_t before = cc.cwnd_bytes();
  cc.on_loss(Seconds(2), before);
  EXPECT_EQ(cc.cwnd_bytes(), before / 2);
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(NewReno, CongestionAvoidanceAddsOneMssPerRound) {
  NewReno cc;
  cc.on_loss(Seconds(1), cc.cwnd_bytes());  // force CA at 5 segments
  const std::uint64_t before = cc.cwnd_bytes();
  feed_round(cc, Seconds(2), Milliseconds(100), kMss);
  const std::uint64_t growth = cc.cwnd_bytes() - before;
  EXPECT_NEAR(static_cast<double>(growth), static_cast<double>(kMss),
              static_cast<double>(kMss) * 0.25);
}

TEST(NewReno, RtoCollapsesToOneSegment) {
  NewReno cc;
  for (int i = 0; i < 3; ++i) feed_round(cc, Seconds(i + 1), Milliseconds(100), kMss);
  const std::uint64_t before = cc.cwnd_bytes();
  cc.on_rto(Seconds(10));
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
  // ssthresh remembers half the pre-timeout window: slow start resumes and
  // exits near before/2.
  while (cc.in_slow_start()) {
    cc.on_ack(make_ack(Seconds(11), kMss, Milliseconds(100)));
  }
  EXPECT_GE(cc.cwnd_bytes(), before / 2);
  EXPECT_LE(cc.cwnd_bytes(), before / 2 + 2 * kMss);
}

TEST(NewReno, WindowNeverBelowTwoSegments) {
  NewReno cc;
  for (int i = 0; i < 20; ++i) cc.on_loss(Seconds(i + 1), cc.cwnd_bytes());
  EXPECT_GE(cc.cwnd_bytes(), 2ull * kMss);
}

TEST(NewReno, SlowStartIncrementCappedAtTwoMssPerAck) {
  NewReno cc;
  const std::uint64_t before = cc.cwnd_bytes();
  // A jumbo cumulative ACK (e.g., after reordering) must not explode cwnd.
  cc.on_ack(make_ack(Seconds(1), 100ull * kMss, Milliseconds(100)));
  EXPECT_EQ(cc.cwnd_bytes(), before + 2ull * kMss);
}

}  // namespace
}  // namespace cebinae
