#include "queueing/fq_codel.hpp"

#include <gtest/gtest.h>

#include <map>

namespace cebinae {
namespace {

Packet pkt(std::uint32_t flow, std::uint32_t size = kMtuBytes) {
  Packet p;
  p.flow = FlowId{flow, 1000 + flow, 5000, 5000};
  p.size_bytes = size;
  return p;
}

FqCoDelParams params(std::uint64_t limit = 10 << 20) {
  FqCoDelParams p;
  p.limit_bytes = limit;
  return p;
}

TEST(FqCoDel, SingleFlowBehavesFifo) {
  Scheduler sched;
  FqCoDel q(sched, params());
  for (std::uint64_t i = 0; i < 5; ++i) {
    Packet p = pkt(1);
    p.seq = i;
    q.enqueue(std::move(p));
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
}

TEST(FqCoDel, InterleavesCompetingFlows) {
  Scheduler sched;
  FqCoDel q(sched, params());
  // Flow 1 floods; flow 2 sends a little. DRR must serve flow 2 roughly one
  // packet per round regardless of flow 1's backlog.
  for (int i = 0; i < 50; ++i) q.enqueue(pkt(1));
  for (int i = 0; i < 5; ++i) q.enqueue(pkt(2));

  std::map<NodeId, int> first_ten;
  for (int i = 0; i < 10; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    ++first_ten[p->flow.src];
  }
  EXPECT_EQ(first_ten[2], 5);  // the small flow finishes within 10 dequeues
}

TEST(FqCoDel, EqualBacklogsShareEqually) {
  Scheduler sched;
  FqCoDel q(sched, params());
  for (int i = 0; i < 30; ++i) {
    q.enqueue(pkt(1));
    q.enqueue(pkt(2));
    q.enqueue(pkt(3));
  }
  std::map<NodeId, int> served;
  for (int i = 0; i < 30; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    ++served[p->flow.src];
  }
  EXPECT_EQ(served[1], 10);
  EXPECT_EQ(served[2], 10);
  EXPECT_EQ(served[3], 10);
}

TEST(FqCoDel, QuantumGivesByteFairnessForUnequalSizes) {
  Scheduler sched;
  FqCoDel q(sched, params());
  // Flow 1 sends MTU packets, flow 2 sends half-size packets.
  for (int i = 0; i < 40; ++i) q.enqueue(pkt(1, kMtuBytes));
  for (int i = 0; i < 80; ++i) q.enqueue(pkt(2, kMtuBytes / 2));

  std::map<NodeId, std::uint64_t> bytes;
  for (int i = 0; i < 60; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    bytes[p->flow.src] += p->size_bytes;
  }
  const double ratio = static_cast<double>(bytes[1]) / static_cast<double>(bytes[2]);
  EXPECT_NEAR(ratio, 1.0, 0.15);
}

TEST(FqCoDel, OverflowDropsFromFattestQueue) {
  Scheduler sched;
  FqCoDel q(sched, params(10 * kMtuBytes));
  for (int i = 0; i < 9; ++i) q.enqueue(pkt(1));
  q.enqueue(pkt(2));
  // Queue is exactly full; the next packet (any flow) forces a drop from
  // flow 1 (the fattest).
  q.enqueue(pkt(2));
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  std::map<NodeId, int> served;
  while (auto p = q.dequeue()) ++served[p->flow.src];
  EXPECT_EQ(served[1], 8);  // one of flow 1's packets was sacrificed
  EXPECT_EQ(served[2], 2);
}

TEST(FqCoDel, IdealModeIsolatesEveryFlow) {
  Scheduler sched;
  FqCoDel q(sched, params());
  for (std::uint32_t f = 1; f <= 64; ++f) q.enqueue(pkt(f));
  EXPECT_EQ(q.flow_queue_count(), 64u);
}

TEST(FqCoDel, EmptyDequeueReturnsNullopt) {
  Scheduler sched;
  FqCoDel q(sched, params());
  EXPECT_FALSE(q.dequeue().has_value());
  q.enqueue(pkt(1));
  EXPECT_TRUE(q.dequeue().has_value());
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_EQ(q.byte_count(), 0u);
  EXPECT_EQ(q.packet_count(), 0u);
}

TEST(FqCoDel, ReactivatedFlowIsNewAgain) {
  Scheduler sched;
  FqCoDel q(sched, params());
  q.enqueue(pkt(1));
  EXPECT_TRUE(q.dequeue().has_value());
  EXPECT_FALSE(q.dequeue().has_value());
  // Flow 1 went idle; when it returns alongside a busy flow 2 backlog, the
  // new-flow list gives it priority.
  for (int i = 0; i < 20; ++i) q.enqueue(pkt(2));
  (void)q.dequeue();  // flow 2 starts
  q.enqueue(pkt(1));
  auto p = q.dequeue();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->flow.src, 1u);
}

TEST(FqCoDel, ArrivalOnOldListDoesNotScheduleQueueTwice) {
  Scheduler sched;
  FqCoDel q(sched, params());
  q.enqueue(pkt(1));
  for (int i = 0; i < 10; ++i) q.enqueue(pkt(2));
  EXPECT_EQ(q.dequeue().value().flow.src, 1u);
  EXPECT_EQ(q.dequeue().value().flow.src, 2u);
  // Flow 1's queue is empty and waits on the old list. Its new packets must
  // leave it there, not also put it on the new list, or it would be served
  // twice per round.
  for (int i = 0; i < 10; ++i) q.enqueue(pkt(1));
  for (int i = 0; i < 8; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->flow.src, i % 2 == 0 ? 1u : 2u) << "dequeue " << i;
  }
}

}  // namespace
}  // namespace cebinae
