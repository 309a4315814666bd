#include "tcp/vegas.hpp"

#include <gtest/gtest.h>

#include "cc_test_util.hpp"

namespace cebinae {
namespace {

constexpr std::uint32_t kMss = kMssBytes;

// Feed one Vegas round: >=3 RTT samples then a round boundary.
Time vegas_round(Vegas& cc, Time now, Time rtt) {
  for (int i = 0; i < 4; ++i) {
    cc.on_ack(make_ack(now + (rtt / 4) * i, kMss, rtt, /*round_start=*/false));
  }
  cc.on_ack(make_ack(now + rtt, kMss, rtt, /*round_start=*/true));
  return now + rtt;
}

TEST(Vegas, TracksBaseRtt) {
  Vegas cc;
  cc.on_ack(make_ack(Seconds(1), kMss, Milliseconds(120)));
  cc.on_ack(make_ack(Seconds(1), kMss, Milliseconds(80)));
  cc.on_ack(make_ack(Seconds(1), kMss, Milliseconds(100)));
  EXPECT_EQ(cc.base_rtt(), Milliseconds(80));
}

TEST(Vegas, IncreasesWhenDiffBelowAlpha) {
  Vegas cc;
  // Force out of slow start with a loss, then run rounds at base RTT
  // (diff = 0 < alpha): +1 MSS per round.
  cc.on_loss(Seconds(1), cc.cwnd_bytes());
  Time now = Seconds(2);
  now = vegas_round(cc, now, Milliseconds(100));  // learns base, first adjust
  const std::uint64_t before = cc.cwnd_bytes();
  now = vegas_round(cc, now, Milliseconds(100));
  EXPECT_EQ(cc.cwnd_bytes(), before + kMss);
}

TEST(Vegas, DecreasesWhenDiffAboveBeta) {
  Vegas cc;
  cc.on_loss(Seconds(1), cc.cwnd_bytes());  // CA at 5 segments
  Time now = Seconds(2);
  now = vegas_round(cc, now, Milliseconds(100));  // base = 100 ms
  // Grow the window a bit at base RTT.
  for (int i = 0; i < 10; ++i) now = vegas_round(cc, now, Milliseconds(100));
  const std::uint64_t before = cc.cwnd_bytes();
  // Now RTT inflates hugely: diff = cwnd*(1 - 100/200) = cwnd/2 >> beta.
  now = vegas_round(cc, now, Milliseconds(200));
  EXPECT_EQ(cc.cwnd_bytes(), before - kMss);
}

TEST(Vegas, HoldsInsideAlphaBetaBand) {
  Vegas cc;
  cc.on_loss(Seconds(1), cc.cwnd_bytes());
  Time now = Seconds(2);
  now = vegas_round(cc, now, Milliseconds(100));
  for (int i = 0; i < 5; ++i) now = vegas_round(cc, now, Milliseconds(100));
  const std::uint64_t cwnd = cc.cwnd_bytes();
  const double cwnd_seg = static_cast<double>(cwnd) / kMss;
  // Pick an RTT so queued segments = 3 (between alpha=2 and beta=4):
  // diff = cwnd*(rtt-base)/rtt = 3  =>  rtt = base*cwnd/(cwnd-3).
  const double rtt_ms = 100.0 * cwnd_seg / (cwnd_seg - 3.0);
  now = vegas_round(cc, now, MillisecondsF(rtt_ms));
  EXPECT_EQ(cc.cwnd_bytes(), cwnd);
}

TEST(Vegas, SlowStartDoublesEveryOtherRound) {
  Vegas cc;
  const std::uint64_t w0 = cc.cwnd_bytes();
  Time now = Seconds(1);
  // Two rounds at base RTT: only one of them grows the window.
  now = vegas_round(cc, now, Milliseconds(100));
  now = vegas_round(cc, now, Milliseconds(100));
  const std::uint64_t w2 = cc.cwnd_bytes();
  EXPECT_LT(w2, 4 * w0);  // strictly less than double-per-round growth
  EXPECT_GT(w2, w0);
}

TEST(Vegas, ExitsSlowStartOnQueueBuildup) {
  Vegas cc;
  Time now = Seconds(1);
  now = vegas_round(cc, now, Milliseconds(100));  // learn base
  EXPECT_TRUE(cc.in_slow_start());
  // Inflated RTT: diff > gamma forces slow-start exit.
  for (int i = 0; i < 4 && cc.in_slow_start(); ++i) {
    now = vegas_round(cc, now, Milliseconds(150));
  }
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(Vegas, LossFallsBackToRenoHalving) {
  Vegas cc;
  const std::uint64_t before = cc.cwnd_bytes();
  cc.on_loss(Seconds(1), before);
  EXPECT_EQ(cc.cwnd_bytes(), before / 2);
}

TEST(Vegas, RtoCollapsesToOneSegment) {
  Vegas cc;
  cc.on_rto(Seconds(1));
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
}

TEST(Vegas, NeedsThreeSamplesPerRound) {
  Vegas cc;
  cc.on_loss(Seconds(1), cc.cwnd_bytes());
  const std::uint64_t before = cc.cwnd_bytes();
  // Rounds with fewer than 3 samples make no adjustment.
  cc.on_ack(make_ack(Seconds(2), kMss, Milliseconds(100), /*round_start=*/false));
  cc.on_ack(make_ack(Seconds(2) + Milliseconds(100), kMss, Milliseconds(100),
                     /*round_start=*/true));
  cc.on_ack(make_ack(Seconds(2) + Milliseconds(150), kMss, Milliseconds(100),
                     /*round_start=*/false));
  cc.on_ack(make_ack(Seconds(2) + Milliseconds(200), kMss, Milliseconds(100),
                     /*round_start=*/true));
  EXPECT_EQ(cc.cwnd_bytes(), before);
}

}  // namespace
}  // namespace cebinae
