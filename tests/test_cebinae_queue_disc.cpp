#include "core/cebinae_queue_disc.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

constexpr std::uint64_t kRate = 100'000'000;

CebinaeParams params() {
  CebinaeParams p;
  p.dt = Nanoseconds(1 << 20);
  return p;
}

Packet pkt(std::uint32_t flow_src, std::uint32_t size = kMtuBytes) {
  Packet p;
  p.flow = FlowId{flow_src, 1000, 5000, 5000};
  p.size_bytes = size;
  p.payload_bytes = size - kHeaderBytes;
  return p;
}

TEST(CebinaeQueueDisc, PassesTrafficWhenUnsaturated) {
  Scheduler sched;
  CebinaeQueueDisc q(sched, kRate, 100 * kMtuBytes, params());
  EXPECT_TRUE(q.enqueue(pkt(1)));
  auto out = q.dequeue();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->flow.src, 1u);
  EXPECT_EQ(q.byte_count(), 0u);
}

TEST(CebinaeQueueDisc, BufferLimitEnforced) {
  Scheduler sched;
  CebinaeQueueDisc q(sched, kRate, 3 * kMtuBytes, params());
  EXPECT_TRUE(q.enqueue(pkt(1)));
  EXPECT_TRUE(q.enqueue(pkt(1)));
  EXPECT_TRUE(q.enqueue(pkt(1)));
  EXPECT_FALSE(q.enqueue(pkt(1)));
  EXPECT_EQ(q.buffer_dropped_packets(), 1u);
}

TEST(CebinaeQueueDisc, HeadQueueHasStrictPriority) {
  Scheduler sched;
  CebinaeQueueDisc q(sched, kRate, 1000 * kMtuBytes, params());
  // Fill past one round's capacity so later packets land in the tail queue.
  // Round capacity ~13107 bytes = ~8.7 MTU.
  for (int i = 0; i < 12; ++i) EXPECT_TRUE(q.enqueue(pkt(1)));
  EXPECT_GT(q.delayed_packets(), 0u);

  // After a rotation the tail queue becomes the head queue: its packets
  // must now be served first. Before rotation, head-queue packets first.
  int served_before_delay = 0;
  for (int i = 0; i < 8; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    ++served_before_delay;
  }
  EXPECT_EQ(served_before_delay, 8);
}

TEST(CebinaeQueueDisc, DequeueFeedsCacheAndPortCounter) {
  Scheduler sched;
  CebinaeQueueDisc q(sched, kRate, 100 * kMtuBytes, params());
  q.enqueue(pkt(1));
  q.enqueue(pkt(2, 500));
  (void)q.dequeue();
  (void)q.dequeue();
  EXPECT_EQ(q.stats().dequeued_bytes, kMtuBytes + 500u);
  EXPECT_EQ(q.cache().bytes_for(FlowId{1, 1000, 5000, 5000}),
            std::optional<std::uint64_t>(kMtuBytes));
  EXPECT_EQ(q.cache().bytes_for(FlowId{2, 1000, 5000, 5000}),
            std::optional<std::uint64_t>(500));
}

TEST(CebinaeQueueDisc, DroppedPacketsNotCounted) {
  Scheduler sched;
  CebinaeQueueDisc q(sched, kRate, 2 * kMtuBytes, params());
  q.enqueue(pkt(1));
  q.enqueue(pkt(1));
  q.enqueue(pkt(1));  // buffer drop
  while (q.dequeue().has_value()) {
  }
  // Egress counters reflect transmitted traffic only.
  EXPECT_EQ(q.stats().dequeued_bytes, 2ull * kMtuBytes);
  EXPECT_EQ(q.cache().bytes_for(FlowId{1, 1000, 5000, 5000}),
            std::optional<std::uint64_t>(2ull * kMtuBytes));
}

TEST(CebinaeQueueDisc, TopMembershipRoutesToGroups) {
  Scheduler sched;
  CebinaeQueueDisc q(sched, kRate, 1000 * kMtuBytes, params());
  std::unordered_set<FlowId, FlowIdHash> top;
  top.insert(FlowId{1, 1000, 5000, 5000});
  q.set_top_flows(std::move(top));
  // 20% of capacity for the top group: ~2621 bytes per round.
  q.lbf().enter_saturated(kRate / 8.0 * 0.2, kRate / 8.0 * 0.8);

  // Flow 1 (top) is throttled hard; flow 2 (bottom) passes freely.
  int flow1_admitted = 0;
  int flow2_admitted = 0;
  for (int i = 0; i < 6; ++i) {
    if (q.enqueue(pkt(1))) ++flow1_admitted;
    if (q.enqueue(pkt(2))) ++flow2_admitted;
  }
  EXPECT_LT(flow1_admitted, 6);
  EXPECT_EQ(flow2_admitted, 6);
  EXPECT_GT(q.lbf_dropped_packets(), 0u);
}

TEST(CebinaeQueueDisc, RotateDelegatesToLbf) {
  Scheduler sched;
  CebinaeQueueDisc q(sched, kRate, 100 * kMtuBytes, params());
  EXPECT_EQ(q.lbf().head_index(), 0);
  Timer rotate(sched, [&] { q.rotate(); });
  rotate.arm_after(params().dt);
  sched.run();
  EXPECT_EQ(q.lbf().head_index(), 1);
}

}  // namespace
}  // namespace cebinae
