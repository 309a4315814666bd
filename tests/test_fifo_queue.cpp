#include "queueing/fifo_queue.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

Packet pkt(std::uint32_t size, std::uint64_t seq = 0) {
  Packet p;
  p.size_bytes = size;
  p.seq = seq;
  return p;
}

TEST(FifoQueue, FifoOrder) {
  FifoQueue q(FifoQueue::unlimited());
  q.enqueue(pkt(100, 1));
  q.enqueue(pkt(100, 2));
  q.enqueue(pkt(100, 3));
  EXPECT_EQ(q.dequeue()->seq, 1u);
  EXPECT_EQ(q.dequeue()->seq, 2u);
  EXPECT_EQ(q.dequeue()->seq, 3u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(FifoQueue, ByteLimitDropsTail) {
  FifoQueue q(250);
  EXPECT_TRUE(q.enqueue(pkt(100)));
  EXPECT_TRUE(q.enqueue(pkt(100)));
  EXPECT_FALSE(q.enqueue(pkt(100)));  // 300 > 250
  EXPECT_TRUE(q.enqueue(pkt(50)));    // exactly fills
  EXPECT_EQ(q.byte_count(), 250u);
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.stats().dropped_bytes, 100u);
}

TEST(FifoQueue, CountsTrackDequeues) {
  FifoQueue q(1000);
  q.enqueue(pkt(400));
  q.enqueue(pkt(300));
  EXPECT_EQ(q.byte_count(), 700u);
  q.dequeue();
  EXPECT_EQ(q.byte_count(), 300u);
  EXPECT_EQ(q.packet_count(), 1u);
  EXPECT_EQ(q.stats().dequeued_bytes, 400u);
  EXPECT_EQ(q.stats().dequeued_packets, 1u);
}

TEST(FifoQueue, MtuLimitHelper) {
  FifoQueue q(2 * kMtuBytes);
  EXPECT_TRUE(q.enqueue(pkt(kMtuBytes)));
  EXPECT_TRUE(q.enqueue(pkt(kMtuBytes)));
  EXPECT_FALSE(q.enqueue(pkt(1)));
}

TEST(FifoQueue, DrainAfterOverflowAdmitsAgain) {
  FifoQueue q(100);
  EXPECT_TRUE(q.enqueue(pkt(100)));
  EXPECT_FALSE(q.enqueue(pkt(100)));
  q.dequeue();
  EXPECT_TRUE(q.enqueue(pkt(100)));
}

}  // namespace
}  // namespace cebinae
