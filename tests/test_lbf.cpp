#include "core/lbf.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

// 100 Mbps link, dT = 2^20 ns (~1.049 ms), vdT = 2^10 ns.
constexpr std::uint64_t kRate = 100'000'000;
constexpr double kCapacityBps = kRate / 8.0;  // 12.5 MB/s

CebinaeParams params() {
  CebinaeParams p;
  p.dt = Nanoseconds(1 << 20);
  return p;
}

double bytes_per_dt(double rate_Bps) { return rate_Bps * params().dt.seconds(); }

using Queue = LeakyBucketFilter::Queue;

TEST(Lbf, UnsaturatedAdmitsUpToCapacityThenDelaysThenDrops) {
  LeakyBucketFilter lbf(params(), kRate);
  const double per_round = bytes_per_dt(kCapacityBps);  // ~13107 bytes

  int head = 0;
  int tail = 0;
  int drop = 0;
  for (int i = 0; i < 30; ++i) {
    switch (lbf.admit(FlowGroup::kBottom, 1000, Time::zero())) {
      case Queue::kHead:
        ++head;
        break;
      case Queue::kTail:
        ++tail;
        break;
      case Queue::kDrop:
        ++drop;
        break;
    }
  }
  EXPECT_EQ(head, static_cast<int>(per_round / 1000));       // 13
  EXPECT_EQ(tail, static_cast<int>(2 * per_round / 1000) - head);  // 13
  EXPECT_EQ(drop, 30 - head - tail);
}

TEST(Lbf, GroupsIgnoredWhileUnsaturated) {
  LeakyBucketFilter lbf(params(), kRate);
  // Both groups draw from the same aggregate allowance.
  EXPECT_EQ(lbf.admit(FlowGroup::kTop, 8000, Time::zero()), Queue::kHead);
  EXPECT_EQ(lbf.admit(FlowGroup::kBottom, 8000, Time::zero()), Queue::kTail);
}

TEST(Lbf, SaturatedTopGroupIsRateLimited) {
  LeakyBucketFilter lbf(params(), kRate);
  lbf.enter_saturated(/*top=*/kCapacityBps * 0.2, /*bottom=*/kCapacityBps * 0.8);
  const double top_round = bytes_per_dt(kCapacityBps * 0.2);  // ~2621 bytes

  int head = 0;
  int tail = 0;
  int drop = 0;
  for (int i = 0; i < 12; ++i) {
    switch (lbf.admit(FlowGroup::kTop, 500, Time::zero())) {
      case Queue::kHead:
        ++head;
        break;
      case Queue::kTail:
        ++tail;
        break;
      case Queue::kDrop:
        ++drop;
        break;
    }
  }
  EXPECT_EQ(head, static_cast<int>(top_round / 500));  // 5
  EXPECT_EQ(drop, 12 - static_cast<int>(2 * top_round / 500));
  EXPECT_EQ(head + tail + drop, 12);
}

TEST(Lbf, BottomGroupUnaffectedByTopConsumption) {
  LeakyBucketFilter lbf(params(), kRate);
  lbf.enter_saturated(kCapacityBps * 0.2, kCapacityBps * 0.8);
  // Top exhausts its budget...
  for (int i = 0; i < 12; ++i) (void)lbf.admit(FlowGroup::kTop, 500, Time::zero());
  // ...bottom still gets its full allocation into the head queue.
  const double bottom_round = bytes_per_dt(kCapacityBps * 0.8);
  int head = 0;
  for (int i = 0; i < static_cast<int>(bottom_round / 500); ++i) {
    if (lbf.admit(FlowGroup::kBottom, 500, Time::zero()) == Queue::kHead) ++head;
  }
  EXPECT_EQ(head, static_cast<int>(bottom_round / 500));
}

TEST(Lbf, RotateDrainsOneRoundOfAllocation) {
  LeakyBucketFilter lbf(params(), kRate);
  lbf.enter_saturated(kCapacityBps * 0.2, kCapacityBps * 0.8);
  for (int i = 0; i < 10; ++i) (void)lbf.admit(FlowGroup::kTop, 500, Time::zero());
  const double before = lbf.group_bytes(FlowGroup::kTop);
  lbf.rotate(params().dt);
  const double drained = before - lbf.group_bytes(FlowGroup::kTop);
  EXPECT_NEAR(drained, bytes_per_dt(kCapacityBps * 0.2), 1.0);
}

TEST(Lbf, RotateFlipsHeadIndex) {
  LeakyBucketFilter lbf(params(), kRate);
  EXPECT_EQ(lbf.head_index(), 0);
  lbf.rotate(params().dt);
  EXPECT_EQ(lbf.head_index(), 1);
  lbf.rotate(params().dt * 2);
  EXPECT_EQ(lbf.head_index(), 0);
  EXPECT_EQ(lbf.rotations(), 2u);
}

TEST(Lbf, FutureRatesApplyToTailQueueOnly) {
  LeakyBucketFilter lbf(params(), kRate);
  lbf.enter_saturated(kCapacityBps * 0.2, kCapacityBps * 0.8);
  lbf.set_future_rates(kCapacityBps * 0.1, kCapacityBps * 0.9);
  const int head = lbf.head_index();
  EXPECT_DOUBLE_EQ(lbf.rate_Bps(head, FlowGroup::kTop), kCapacityBps * 0.2);
  EXPECT_DOUBLE_EQ(lbf.rate_Bps(1 - head, FlowGroup::kTop), kCapacityBps * 0.1);
  EXPECT_DOUBLE_EQ(lbf.rate_Bps(1 - head, FlowGroup::kBottom), kCapacityBps * 0.9);
}

TEST(Lbf, VirtualPacingLimitsCatchUpBursts) {
  // A group idle for 90% of the round cannot burst its whole round
  // allocation into the head queue at the end: the byte counter is floored
  // to the pacing line (Fig. 5 lines 15-20).
  LeakyBucketFilter lbf(params(), kRate);
  lbf.enter_saturated(kCapacityBps * 0.2, kCapacityBps * 0.8);
  const Time late = Nanoseconds((1 << 20) * 9 / 10);

  int head = 0;
  for (int i = 0; i < 10; ++i) {
    if (lbf.admit(FlowGroup::kTop, 500, late) == Queue::kHead) ++head;
  }
  // Remaining head entitlement is only ~10% of the round (~262 bytes): at
  // most 0 full 500 B packets fit.
  EXPECT_EQ(head, 0);
}

TEST(Lbf, EarlySenderGetsFullHeadAllocation) {
  LeakyBucketFilter lbf(params(), kRate);
  lbf.enter_saturated(kCapacityBps * 0.2, kCapacityBps * 0.8);
  int head = 0;
  for (int i = 0; i < 10; ++i) {
    if (lbf.admit(FlowGroup::kTop, 500, Time::zero()) == Queue::kHead) ++head;
  }
  EXPECT_EQ(head, 5);  // full 2621-byte entitlement available at round start
}

TEST(Lbf, DropsDoNotConsumeAllocation) {
  LeakyBucketFilter lbf(params(), kRate);
  lbf.enter_saturated(kCapacityBps * 0.2, kCapacityBps * 0.8);
  // A giant packet that must be dropped...
  EXPECT_EQ(lbf.admit(FlowGroup::kTop, 50'000, Time::zero()), Queue::kDrop);
  // ...must not charge the group's counter: a normal packet still fits.
  EXPECT_EQ(lbf.admit(FlowGroup::kTop, 500, Time::zero()), Queue::kHead);
}

TEST(Lbf, PhaseChangeBootstrapSplitsAggregateProportionally) {
  LeakyBucketFilter lbf(params(), kRate);
  // Accumulate 5000 aggregate bytes while unsaturated.
  for (int i = 0; i < 5; ++i) (void)lbf.admit(FlowGroup::kBottom, 1000, Time::zero());
  EXPECT_DOUBLE_EQ(lbf.total_bytes(), 5000.0);

  lbf.enter_saturated(kCapacityBps * 0.2, kCapacityBps * 0.8);
  (void)lbf.admit(FlowGroup::kTop, 100, Time::zero());
  // bytes[top] = total * 20% + the packet itself.
  EXPECT_NEAR(lbf.group_bytes(FlowGroup::kTop), 5000.0 * 0.2 + 100.0, 1.0);
}

TEST(Lbf, LeaveSaturatedRestoresCapacityRates) {
  LeakyBucketFilter lbf(params(), kRate);
  lbf.enter_saturated(kCapacityBps * 0.2, kCapacityBps * 0.8);
  lbf.leave_saturated();
  EXPECT_FALSE(lbf.saturated_phase());
  for (int q = 0; q < 2; ++q) {
    EXPECT_DOUBLE_EQ(lbf.rate_Bps(q, FlowGroup::kTop), kCapacityBps);
    EXPECT_DOUBLE_EQ(lbf.rate_Bps(q, FlowGroup::kBottom), kCapacityBps);
  }
}

TEST(Lbf, SteadyStateThroughputMatchesRateOverManyRounds) {
  // Property: over many rounds, the bytes admitted for the top group track
  // top_rate * elapsed_time, regardless of arrival pattern.
  LeakyBucketFilter lbf(params(), kRate);
  const double top_rate = kCapacityBps * 0.3;
  lbf.enter_saturated(top_rate, kCapacityBps * 0.7);

  double admitted = 0;
  Time now = Time::zero();
  const Time dt = params().dt;
  for (int round = 0; round < 100; ++round) {
    // Offered load: 2x the allocation, spread across the round.
    for (int i = 0; i < 40; ++i) {
      const Time t = now + (dt / 40) * i;
      if (lbf.admit(FlowGroup::kTop, 2000, t) != Queue::kDrop) admitted += 2000;
    }
    now += dt;
    lbf.rotate(now);
    lbf.set_future_rates(top_rate, kCapacityBps * 0.7);
  }
  const double expected = top_rate * (dt.seconds() * 100);
  EXPECT_NEAR(admitted / expected, 1.0, 0.1);
}

}  // namespace
}  // namespace cebinae
