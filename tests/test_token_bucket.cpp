#include "queueing/token_bucket.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

TEST(TokenBucket, StartsFullAndAdmitsBurst) {
  TokenBucket tb(1000.0, 5000.0);  // 1 kB/s, 5 kB burst
  EXPECT_TRUE(tb.conforms(5000, Time::zero()));
  EXPECT_FALSE(tb.conforms(1, Time::zero()));
}

TEST(TokenBucket, RefillsAtConfiguredRate) {
  TokenBucket tb(1000.0, 5000.0);
  EXPECT_TRUE(tb.conforms(5000, Time::zero()));
  // After 2 seconds: 2000 tokens accrued.
  EXPECT_TRUE(tb.conforms(2000, Seconds(2)));
  EXPECT_FALSE(tb.conforms(1, Seconds(2)));
}

TEST(TokenBucket, BurstCapsAccumulation) {
  TokenBucket tb(1000.0, 5000.0);
  // 100 s idle would accrue 100 kB, but the bucket caps at 5 kB.
  EXPECT_DOUBLE_EQ(tb.tokens(Seconds(100)), 5000.0);
}

TEST(TokenBucket, LongRunAdmitsExactlyRate) {
  TokenBucket tb(10'000.0, 1'000.0);
  std::uint64_t admitted = 0;
  for (int ms = 0; ms < 10'000; ++ms) {
    if (tb.conforms(100, Milliseconds(ms))) admitted += 100;
  }
  // 10 s at 10 kB/s = 100 kB (+ initial burst).
  EXPECT_NEAR(static_cast<double>(admitted), 101'000.0, 1'000.0);
}

Packet pkt(std::uint32_t flow, std::uint32_t size = kMtuBytes) {
  Packet p;
  p.flow = FlowId{flow, 1000, 5000, 5000};
  p.size_bytes = size;
  return p;
}

// 100 Mbps port: 1.25 MB per 100 ms measurement interval.
constexpr std::uint64_t kRate = 100'000'000;

TEST(Strawman, PassesTrafficWhenUnsaturated) {
  Scheduler sched;
  StrawmanQueueDisc q(sched, kRate, 100 * kMtuBytes);
  q.enqueue(pkt(1));
  EXPECT_TRUE(q.dequeue().has_value());
  sched.run_until(Seconds(1));
  EXPECT_FALSE(q.limiting());
}

TEST(Strawman, FreezesAtMaxRateWhenSaturated) {
  Scheduler sched;
  StrawmanQueueDisc q(sched, kRate, 2000 * kMtuBytes);
  // Saturate: flow 1 carries 2/3, flow 2 carries 1/3 of ~line rate.
  Timer feed(sched, [&] {
    for (int i = 0; i < 6; ++i) q.enqueue(pkt(1));
    for (int i = 0; i < 3; ++i) q.enqueue(pkt(2));
    for (int i = 0; i < 9; ++i) (void)q.dequeue();
    feed.arm_after(Milliseconds(1));
  });
  feed.arm_after(Milliseconds(1));
  sched.run_until(Milliseconds(250));
  EXPECT_TRUE(q.limiting());
  // Frozen at the larger flow's rate: 6 MTU/ms = 72 Mbps.
  EXPECT_NEAR(q.frozen_rate_Bps() * 8 / 1e6, 72.0, 8.0);
}

TEST(Strawman, ReleasesWhenDemandDrops) {
  Scheduler sched;
  StrawmanQueueDisc q(sched, kRate, 2000 * kMtuBytes);
  bool feeding = true;
  Timer feed(sched, [&] {
    if (feeding) {
      for (int i = 0; i < 9; ++i) q.enqueue(pkt(1));
      for (int i = 0; i < 9; ++i) (void)q.dequeue();
    }
    feed.arm_after(Milliseconds(1));
  });
  feed.arm_after(Milliseconds(1));
  sched.run_until(Milliseconds(250));
  ASSERT_TRUE(q.limiting());
  feeding = false;
  sched.run_until(Milliseconds(500));
  EXPECT_FALSE(q.limiting());
}

TEST(Strawman, LimitsDropNonconformingTraffic) {
  // Freeze while the top flow runs at ~60 Mbps, then let it try to ramp to
  // ~108 Mbps: the excess must be dropped by its token bucket.
  Scheduler sched;
  StrawmanQueueDisc q(sched, kRate, 2000 * kMtuBytes);
  bool ramped = false;
  Timer feed(sched, [&] {
    for (int i = 0; i < (ramped ? 9 : 5); ++i) q.enqueue(pkt(1));
    for (int i = 0; i < 4; ++i) q.enqueue(pkt(2));
    for (int i = 0; i < 9; ++i) (void)q.dequeue();
    feed.arm_after(Milliseconds(1));
  });
  feed.arm_after(Milliseconds(1));
  sched.run_until(Milliseconds(300));
  ASSERT_TRUE(q.limiting());
  const double frozen = q.frozen_rate_Bps() * 8 / 1e6;
  EXPECT_LT(frozen, 70.0);
  ramped = true;
  sched.run_until(Seconds(1));
  EXPECT_GT(q.limited_drops(), 0u);
}

TEST(Strawman, CannotRepairExistingUnfairness) {
  // The §3.2 failure mode in miniature: with a {6,1} offered split the
  // strawman freezes the big flow at ~its unfair rate; the allocation stays
  // roughly {6,1} rather than moving toward {3.5,3.5}.
  Scheduler sched;
  StrawmanQueueDisc q(sched, kRate, 2000 * kMtuBytes);
  std::uint64_t got1 = 0;
  std::uint64_t got2 = 0;
  Timer feed(sched, [&] {
    for (int i = 0; i < 6; ++i) q.enqueue(pkt(1));
    for (int i = 0; i < 3; ++i) q.enqueue(pkt(2));
    for (int i = 0; i < 9; ++i) {
      auto p = q.dequeue();
      if (!p) break;
      (p->flow.src == 1 ? got1 : got2) += p->size_bytes;
    }
    feed.arm_after(Milliseconds(1));
  });
  feed.arm_after(Milliseconds(1));
  sched.run_until(Seconds(2));
  // Ratio stays near the offered 2:1 (within 25%): no redistribution.
  EXPECT_NEAR(static_cast<double>(got1) / static_cast<double>(got2), 2.0, 0.5);
}

}  // namespace
}  // namespace cebinae
