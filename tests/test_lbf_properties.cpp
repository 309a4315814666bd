// Property-style sweeps over the leaky-bucket filter: rate conservation,
// ordering guarantees, and admission monotonicity across capacities, rate
// splits, and offered loads.
#include <gtest/gtest.h>

#include "core/lbf.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"

namespace cebinae {
namespace {

CebinaeParams params() {
  CebinaeParams p;
  p.dt = Nanoseconds(1 << 20);
  p.vdt = Nanoseconds(1 << 10);
  return p;
}

using Queue = LeakyBucketFilter::Queue;

class LbfRateSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(LbfRateSweep, AdmittedTopBytesTrackAllocatedRate) {
  const auto [capacity_bps, top_share] = GetParam();
  const double capacity_Bps = static_cast<double>(capacity_bps) / 8.0;
  LeakyBucketFilter lbf(params(), capacity_bps);
  lbf.enter_saturated(capacity_Bps * top_share, capacity_Bps * (1 - top_share));

  const Time dt = params().dt;
  double admitted = 0;
  Time now = Time::zero();
  const int rounds = 60;
  for (int r = 0; r < rounds; ++r) {
    // Offered: 3x the group's allocation, spread over the round.
    const double offered = 3.0 * capacity_Bps * top_share * dt.seconds();
    const int pkts = std::max(4, static_cast<int>(offered / kMtuBytes));
    for (int i = 0; i < pkts; ++i) {
      const Time t = now + (dt / pkts) * i;
      if (lbf.admit(FlowGroup::kTop, kMtuBytes, t) != Queue::kDrop) {
        admitted += kMtuBytes;
      }
    }
    now += dt;
    lbf.rotate(now);
    lbf.set_future_rates(capacity_Bps * top_share, capacity_Bps * (1 - top_share));
  }
  const double expected = capacity_Bps * top_share * dt.seconds() * rounds;
  EXPECT_NEAR(admitted / expected, 1.0, 0.25)
      << "capacity=" << capacity_bps << " share=" << top_share;
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndShares, LbfRateSweep,
    ::testing::Combine(::testing::Values(100'000'000ull, 1'000'000'000ull),
                       ::testing::Values(0.1, 0.3, 0.5, 0.8)));

TEST(LbfProperties, GroupsAreIsolated) {
  // Whatever the top group offers, the bottom group's admissions into the
  // head queue are unaffected.
  RandomStream rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    LeakyBucketFilter lbf(params(), 100'000'000);
    const double cap = 12.5e6;
    lbf.enter_saturated(cap * 0.3, cap * 0.7);

    // Random top-group interference.
    const int top_pkts = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < top_pkts; ++i) {
      (void)lbf.admit(FlowGroup::kTop,
                      static_cast<std::uint32_t>(rng.uniform_int(64, kMtuBytes)),
                      Time::zero());
    }

    // Bottom group's head admission must equal its full allocation.
    const double bottom_round = cap * 0.7 * params().dt.seconds();
    int head = 0;
    const int offered = static_cast<int>(bottom_round / 500) + 4;
    for (int i = 0; i < offered; ++i) {
      if (lbf.admit(FlowGroup::kBottom, 500, Time::zero()) == Queue::kHead) ++head;
    }
    EXPECT_EQ(head, static_cast<int>(bottom_round / 500)) << "trial " << trial;
  }
}

TEST(LbfProperties, HeadThenTailNeverReorders) {
  // Within one round, a group's packets can only move from head to tail to
  // drop — never back — so FIFO order within the group is preserved.
  LeakyBucketFilter lbf(params(), 100'000'000);
  lbf.enter_saturated(12.5e6 * 0.2, 12.5e6 * 0.8);
  int phase = 0;  // 0=head, 1=tail, 2=drop
  for (int i = 0; i < 40; ++i) {
    const Queue q = lbf.admit(FlowGroup::kTop, 500, Time::zero());
    const int now_phase = q == Queue::kHead ? 0 : (q == Queue::kTail ? 1 : 2);
    EXPECT_GE(now_phase, phase) << "packet " << i;
    phase = now_phase;
  }
  EXPECT_EQ(phase, 2);  // offered enough to reach the drop region
}

TEST(LbfProperties, RotationsAreIdempotentOnIdleGroups) {
  LeakyBucketFilter lbf(params(), 100'000'000);
  lbf.enter_saturated(12.5e6 * 0.5, 12.5e6 * 0.5);
  Time now = Time::zero();
  for (int r = 0; r < 10; ++r) {
    now += params().dt;
    lbf.rotate(now);
  }
  EXPECT_DOUBLE_EQ(lbf.group_bytes(FlowGroup::kTop), 0.0);
  EXPECT_DOUBLE_EQ(lbf.group_bytes(FlowGroup::kBottom), 0.0);
  // A fresh packet after long idleness is admitted to the head queue.
  EXPECT_EQ(lbf.admit(FlowGroup::kTop, 500, now), Queue::kHead);
}

TEST(LbfProperties, AdmissionMonotoneInRate) {
  // More allocated rate never admits fewer bytes.
  double prev_admitted = -1;
  for (double share : {0.1, 0.2, 0.4, 0.6, 0.9}) {
    LeakyBucketFilter lbf(params(), 100'000'000);
    lbf.enter_saturated(12.5e6 * share, 12.5e6 * (1 - share));
    double admitted = 0;
    for (int i = 0; i < 60; ++i) {
      if (lbf.admit(FlowGroup::kTop, 1000, Time::zero()) != Queue::kDrop) {
        admitted += 1000;
      }
    }
    EXPECT_GE(admitted, prev_admitted) << "share " << share;
    prev_admitted = admitted;
  }
}

TEST(LbfProperties, TotalAdmissionNeverExceedsTwoRoundsOfCapacity) {
  // Safety property behind Eq. 2: in any single round, at most 2 rounds'
  // worth of capacity can be admitted across both groups (head + tail).
  RandomStream rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    LeakyBucketFilter lbf(params(), 100'000'000);
    const double cap = 12.5e6;
    const double share = rng.uniform(0.05, 0.95);
    lbf.enter_saturated(cap * share, cap * (1 - share));
    double admitted = 0;
    for (int i = 0; i < 600; ++i) {
      const FlowGroup g = rng.bernoulli(0.5) ? FlowGroup::kTop : FlowGroup::kBottom;
      const std::uint32_t size = static_cast<std::uint32_t>(rng.uniform_int(64, kMtuBytes));
      if (lbf.admit(g, size, Time::zero()) != Queue::kDrop) admitted += size;
    }
    EXPECT_LE(admitted, 2.0 * cap * params().dt.seconds() + 2.0 * kMtuBytes)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace cebinae
