// CoDel control-law tests. They run through FqCoDel: every test packet has
// the same (default) FlowId, so there is one flow queue and every packet
// passes through its CoDel state.
#include "queueing/fq_codel.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

Packet pkt(std::uint32_t size) {
  Packet p;
  p.size_bytes = size;
  return p;
}

FqCoDelParams codel_params(std::uint64_t limit_bytes) {
  FqCoDelParams p;
  p.limit_bytes = limit_bytes;
  return p;
}

TEST(Codel, NoDropsBelowTarget) {
  Scheduler sched;
  FqCoDel q(sched, codel_params(1 << 20));
  // Enqueue and dequeue promptly: sojourn ~0, never drops.
  for (int i = 0; i < 100; ++i) {
    q.enqueue(pkt(kMtuBytes));
    sched.run_until(sched.now() + Microseconds(100));
    EXPECT_TRUE(q.dequeue().has_value());
  }
  EXPECT_EQ(q.stats().dropped_packets, 0u);
}

TEST(Codel, NoDropWithinFirstInterval) {
  Scheduler sched;
  FqCoDel q(sched, codel_params(1 << 20));
  for (int i = 0; i < 50; ++i) q.enqueue(pkt(kMtuBytes));
  // Sojourn above target but the 100 ms grace interval has not elapsed.
  sched.run_until(Milliseconds(50));
  EXPECT_TRUE(q.dequeue().has_value());
  EXPECT_EQ(q.stats().dropped_packets, 0u);
}

TEST(Codel, DropsAfterPersistentQueue) {
  Scheduler sched;
  FqCoDel q(sched, codel_params(1 << 20));
  for (int i = 0; i < 200; ++i) q.enqueue(pkt(kMtuBytes));
  std::uint64_t drops = 0;
  // Dequeue slowly: standing queue with sojourn >> target for >> interval.
  for (int i = 0; i < 100; ++i) {
    sched.run_until(sched.now() + Milliseconds(20));
    (void)q.dequeue();
    drops = q.stats().dropped_packets;
  }
  EXPECT_GT(drops, 0u);
}

TEST(Codel, DropRateAcceleratesWithSqrtLaw) {
  Scheduler sched;
  FqCoDel q(sched, codel_params(8 << 20));
  for (int i = 0; i < 2000; ++i) q.enqueue(pkt(kMtuBytes));
  std::uint64_t drops_first_half = 0;
  for (int i = 0; i < 50; ++i) {
    sched.run_until(sched.now() + Milliseconds(20));
    (void)q.dequeue();
  }
  drops_first_half = q.stats().dropped_packets;
  for (int i = 0; i < 50; ++i) {
    sched.run_until(sched.now() + Milliseconds(20));
    (void)q.dequeue();
  }
  const std::uint64_t drops_second_half = q.stats().dropped_packets - drops_first_half;
  EXPECT_GT(drops_second_half, drops_first_half);
}

TEST(Codel, RecoverWhenQueueDrains) {
  Scheduler sched;
  FqCoDel q(sched, codel_params(1 << 20));
  for (int i = 0; i < 100; ++i) q.enqueue(pkt(kMtuBytes));
  for (int i = 0; i < 100; ++i) {
    sched.run_until(sched.now() + Milliseconds(20));
    (void)q.dequeue();
  }
  while (q.dequeue().has_value()) {
  }
  const std::uint64_t drops_before = q.stats().dropped_packets;
  // Fresh, fast-moving traffic must not be dropped.
  for (int i = 0; i < 50; ++i) {
    q.enqueue(pkt(kMtuBytes));
    sched.run_until(sched.now() + Microseconds(10));
    EXPECT_TRUE(q.dequeue().has_value());
  }
  EXPECT_EQ(q.stats().dropped_packets, drops_before);
}

}  // namespace
}  // namespace cebinae
