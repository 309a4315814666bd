#include "tcp/bbr.hpp"

#include <gtest/gtest.h>

#include "cc_test_util.hpp"

namespace cebinae {
namespace {

constexpr std::uint32_t kMss = kMssBytes;

AckEvent bbr_ack(Time now, Time rtt, double rate_Bps, bool round_start,
                 std::uint64_t inflight) {
  AckEvent ev = make_ack(now, kMss, rtt, round_start, inflight);
  ev.delivery_rate_Bps = rate_Bps;
  return ev;
}

// Drive BBR through STARTUP with a bandwidth that has stopped growing.
// Reports a large inflight so DRAIN does not end on its own.
Time run_startup_to_drain(Bbr& cc, double bw_Bps, Time rtt, Time start) {
  Time now = start;
  const std::uint64_t big_inflight = static_cast<std::uint64_t>(4.0 * bw_Bps * rtt.seconds());
  for (int round = 0; round < 12 && cc.mode() == Bbr::Mode::kStartup; ++round) {
    cc.on_ack(bbr_ack(now, rtt, bw_Bps, /*round_start=*/true, big_inflight));
    for (int i = 0; i < 4 && cc.mode() == Bbr::Mode::kStartup; ++i) {
      now += rtt / 5;
      cc.on_ack(bbr_ack(now, rtt, bw_Bps, false, big_inflight));
    }
    now += rtt / 5;
  }
  return now;
}

TEST(Bbr, StartsInStartupWithHighGain) {
  Bbr cc;
  EXPECT_EQ(cc.mode(), Bbr::Mode::kStartup);
  EXPECT_TRUE(cc.in_slow_start());
  EXPECT_EQ(cc.cwnd_bytes(), 10ull * kMss);
  EXPECT_DOUBLE_EQ(cc.pacing_rate_Bps(), 0.0);  // no model yet
}

TEST(Bbr, LearnsBandwidthAndMinRtt) {
  Bbr cc;
  cc.on_ack(bbr_ack(Seconds(1), Milliseconds(50), 1e6, true, 10 * kMss));
  EXPECT_DOUBLE_EQ(cc.btl_bw_Bps(), 1e6);
  EXPECT_EQ(cc.min_rtt(), Milliseconds(50));
  cc.on_ack(bbr_ack(Seconds(1) + Milliseconds(50), Milliseconds(40), 2e6, false, 10 * kMss));
  EXPECT_DOUBLE_EQ(cc.btl_bw_Bps(), 2e6);
  EXPECT_EQ(cc.min_rtt(), Milliseconds(40));
}

TEST(Bbr, PacingRateIsGainTimesBandwidth) {
  Bbr cc;
  cc.on_ack(bbr_ack(Seconds(1), Milliseconds(50), 1e6, true, 10 * kMss));
  EXPECT_NEAR(cc.pacing_rate_Bps(), 2.885 * 1e6, 1e3);
}

TEST(Bbr, ExitsStartupWhenBandwidthPlateaus) {
  Bbr cc;
  run_startup_to_drain(cc, 1e7, Milliseconds(50), Seconds(1));
  EXPECT_NE(cc.mode(), Bbr::Mode::kStartup);
}

TEST(Bbr, StaysInStartupWhileBandwidthGrows) {
  Bbr cc;
  double bw = 1e6;
  Time now = Seconds(1);
  for (int round = 0; round < 10; ++round) {
    cc.on_ack(bbr_ack(now, Milliseconds(50), bw, true, cc.cwnd_bytes()));
    bw *= 1.5;  // keeps growing >25% per round
    now += Milliseconds(50);
  }
  EXPECT_EQ(cc.mode(), Bbr::Mode::kStartup);
}

TEST(Bbr, DrainEndsWhenInflightReachesBdp) {
  Bbr cc;
  Time now = run_startup_to_drain(cc, 1e7, Milliseconds(50), Seconds(1));
  ASSERT_EQ(cc.mode(), Bbr::Mode::kDrain);
  // BDP = 1e7 B/s * 0.05 s = 500 kB; report inflight below that.
  cc.on_ack(bbr_ack(now, Milliseconds(50), 1e7, false, 100 * kMss));
  EXPECT_EQ(cc.mode(), Bbr::Mode::kProbeBw);
}

TEST(Bbr, ProbeBwCyclesGains) {
  Bbr cc;
  Time now = run_startup_to_drain(cc, 1e7, Milliseconds(50), Seconds(1));
  cc.on_ack(bbr_ack(now, Milliseconds(50), 1e7, false, 100 * kMss));
  ASSERT_EQ(cc.mode(), Bbr::Mode::kProbeBw);

  bool saw_probe_gain = false;
  bool saw_drain_gain = false;
  for (int i = 0; i < 20; ++i) {
    now += Milliseconds(60);  // > min_rtt advances the cycle
    cc.on_ack(bbr_ack(now, Milliseconds(50), 1e7, i % 3 == 0, 300 * kMss));
    const double gain = cc.pacing_rate_Bps() / cc.btl_bw_Bps();
    if (gain > 1.2) saw_probe_gain = true;
    if (gain < 0.8) saw_drain_gain = true;
  }
  EXPECT_TRUE(saw_probe_gain);
  EXPECT_TRUE(saw_drain_gain);
}

TEST(Bbr, CwndTargetsTwoBdpInProbeBw) {
  Bbr cc;
  Time now = run_startup_to_drain(cc, 1e7, Milliseconds(50), Seconds(1));
  cc.on_ack(bbr_ack(now, Milliseconds(50), 1e7, false, 100 * kMss));
  ASSERT_EQ(cc.mode(), Bbr::Mode::kProbeBw);
  // Feed plenty of ACKs so cwnd can climb to its target.
  for (int i = 0; i < 2000; ++i) {
    now += Microseconds(500);
    cc.on_ack(bbr_ack(now, Milliseconds(50), 1e7, false, cc.cwnd_bytes()));
  }
  const double bdp = 1e7 * 0.05;
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 2.0 * bdp, bdp * 0.1);
}

TEST(Bbr, EntersProbeRttWhenMinRttStale) {
  Bbr cc;
  Time now = run_startup_to_drain(cc, 1e7, Milliseconds(50), Seconds(1));
  cc.on_ack(bbr_ack(now, Milliseconds(50), 1e7, false, 100 * kMss));
  ASSERT_EQ(cc.mode(), Bbr::Mode::kProbeBw);
  // No lower RTT sample for >10 s.
  now += Seconds(11);
  cc.on_ack(bbr_ack(now, Milliseconds(60), 1e7, true, 300 * kMss));
  EXPECT_EQ(cc.mode(), Bbr::Mode::kProbeRtt);
  cc.on_ack(bbr_ack(now + Milliseconds(1), Milliseconds(60), 1e7, false, 300 * kMss));
  EXPECT_EQ(cc.cwnd_bytes(), 4ull * kMss);
}

TEST(Bbr, LeavesProbeRttAfterDwell) {
  Bbr cc;
  Time now = run_startup_to_drain(cc, 1e7, Milliseconds(50), Seconds(1));
  cc.on_ack(bbr_ack(now, Milliseconds(50), 1e7, false, 100 * kMss));
  now += Seconds(11);
  cc.on_ack(bbr_ack(now, Milliseconds(60), 1e7, true, 300 * kMss));
  ASSERT_EQ(cc.mode(), Bbr::Mode::kProbeRtt);
  // Inflight drops to <= 4 segments; dwell 200 ms + a round boundary.
  now += Milliseconds(10);
  cc.on_ack(bbr_ack(now, Milliseconds(60), 1e7, false, 3 * kMss));
  now += Milliseconds(250);
  cc.on_ack(bbr_ack(now, Milliseconds(60), 1e7, true, 3 * kMss));
  now += Milliseconds(10);
  cc.on_ack(bbr_ack(now, Milliseconds(60), 1e7, true, 3 * kMss));
  EXPECT_EQ(cc.mode(), Bbr::Mode::kProbeBw);
}

TEST(Bbr, IgnoresLoss) {
  Bbr cc;
  Time now = run_startup_to_drain(cc, 1e7, Milliseconds(50), Seconds(1));
  cc.on_ack(bbr_ack(now, Milliseconds(50), 1e7, false, 100 * kMss));
  const std::uint64_t cwnd = cc.cwnd_bytes();
  const double pacing = cc.pacing_rate_Bps();
  cc.on_loss(now, cwnd);
  EXPECT_EQ(cc.cwnd_bytes(), cwnd);
  EXPECT_DOUBLE_EQ(cc.pacing_rate_Bps(), pacing);
}

TEST(Bbr, RtoConservesThenRecovers) {
  Bbr cc;
  Time now = run_startup_to_drain(cc, 1e7, Milliseconds(50), Seconds(1));
  cc.on_ack(bbr_ack(now, Milliseconds(50), 1e7, false, 100 * kMss));
  cc.on_rto(now);
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
  // The model survives: subsequent ACKs regrow toward the BDP target.
  for (int i = 0; i < 3000; ++i) {
    now += Microseconds(500);
    cc.on_ack(bbr_ack(now, Milliseconds(50), 1e7, false, cc.cwnd_bytes()));
  }
  EXPECT_GT(cc.cwnd_bytes(), 100ull * kMss);
}

}  // namespace
}  // namespace cebinae
