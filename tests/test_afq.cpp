#include "queueing/afq.hpp"

#include <gtest/gtest.h>

#include <map>

namespace cebinae {
namespace {

Packet pkt(std::uint32_t flow, std::uint32_t size = kMtuBytes) {
  Packet p;
  p.flow = FlowId{flow, 1000, 5000, 5000};
  p.size_bytes = size;
  return p;
}

constexpr std::uint64_t kBufferBytes = 4 * 1024 * 1024;

AfqParams params(std::uint32_t nq = 32, std::uint32_t bpr = 2 * kMtuBytes) {
  AfqParams p;
  p.num_queues = nq;
  p.bytes_per_round = bpr;
  return p;
}

TEST(Afq, SingleFlowPassesInOrder) {
  Afq q(kBufferBytes, params());
  for (std::uint64_t i = 0; i < 5; ++i) {
    Packet p = pkt(1);
    p.seq = i;
    ASSERT_TRUE(q.enqueue(std::move(p)));
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
}

TEST(Afq, RoundRobinAcrossBackloggedFlows) {
  Afq q(kBufferBytes, params(32, kMtuBytes));
  // Two flows, each with 16 packets: the calendar interleaves them round by
  // round rather than serving one flow's backlog first.
  for (int i = 0; i < 16; ++i) {
    q.enqueue(pkt(1));
    q.enqueue(pkt(2));
  }
  std::map<NodeId, int> first8;
  for (int i = 0; i < 8; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    ++first8[p->flow.src];
  }
  EXPECT_EQ(first8[1], 4);
  EXPECT_EQ(first8[2], 4);
}

TEST(Afq, ByteFairnessForUnequalPacketSizes) {
  Afq q(kBufferBytes, params(64, kMtuBytes));
  for (int i = 0; i < 20; ++i) q.enqueue(pkt(1, kMtuBytes));
  for (int i = 0; i < 40; ++i) q.enqueue(pkt(2, kMtuBytes / 2));
  std::map<NodeId, std::uint64_t> bytes;
  for (int i = 0; i < 30; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    bytes[p->flow.src] += p->size_bytes;
  }
  EXPECT_NEAR(static_cast<double>(bytes[1]) / static_cast<double>(bytes[2]), 1.0, 0.35);
}

TEST(Afq, HorizonDropsWhenFlowTooFarAhead) {
  // nQ=4, BpR=1 MTU: a flow can have at most ~4 MTU scheduled ahead.
  Afq q(kBufferBytes, params(4, kMtuBytes));
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (q.enqueue(pkt(1))) ++admitted;
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(q.horizon_drops(), 6u);
}

TEST(Afq, HorizonScalesWithNqTimesBpr) {
  // Equation 1: buffer_req <= BpR x nQ per flow.
  for (auto [nq, bpr, expect] :
       {std::tuple<std::uint32_t, std::uint32_t, int>{8, kMtuBytes, 8},
        {4, 2 * kMtuBytes, 8},
        {16, kMtuBytes, 16}}) {
    Afq q(kBufferBytes, params(nq, bpr));
    int admitted = 0;
    for (int i = 0; i < 64; ++i) {
      if (q.enqueue(pkt(1))) ++admitted;
    }
    EXPECT_EQ(admitted, expect) << "nQ=" << nq << " BpR=" << bpr;
  }
}

TEST(Afq, IdleFlowRestartsAtCurrentRound) {
  Afq q(kBufferBytes, params(8, kMtuBytes));
  // Flow 1 sends a lot early; flow 2 arrives later and must not be charged
  // for rounds it never used.
  for (int i = 0; i < 8; ++i) q.enqueue(pkt(1));
  for (int i = 0; i < 6; ++i) (void)q.dequeue();  // advance several rounds
  ASSERT_TRUE(q.enqueue(pkt(2)));
  // Flow 2's packet sits at (or near) the current round: served promptly.
  auto p = q.dequeue();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->flow.src, 2u);
}

TEST(Afq, BufferLimitIndependentOfHorizon) {
  Afq q(4 * kMtuBytes, params(1024, kMtuBytes));
  int admitted = 0;
  for (std::uint32_t f = 1; f <= 8; ++f) {
    if (q.enqueue(pkt(f))) ++admitted;
  }
  EXPECT_EQ(admitted, 4);
}

TEST(Afq, DrainsCompletely) {
  Afq q(kBufferBytes, params());
  for (std::uint32_t f = 1; f <= 5; ++f) {
    for (int i = 0; i < 3; ++i) q.enqueue(pkt(f));
  }
  int served = 0;
  while (q.dequeue().has_value()) ++served;
  EXPECT_EQ(served, 15);
  EXPECT_EQ(q.byte_count(), 0u);
  EXPECT_EQ(q.packet_count(), 0u);
}

}  // namespace
}  // namespace cebinae
