// PacketSlab and SlotFifo, and the slab's accounting across whole scenarios:
// one allocation per admitted packet per hop, every live slot queued or on
// the wire, and none left behind when a network is torn down mid-run.
#include "net/packet_slab.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "control/packet_generator.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

Packet sized(std::uint32_t size) {
  Packet p;
  p.size_bytes = size;
  return p;
}

TEST(PacketSlab, CountsLiveSlotsAndAllocations) {
  PacketSlab slab;
  const PacketSlab::Slot a = slab.alloc(sized(100), Time(7));
  const PacketSlab::Slot b = slab.alloc(sized(200), Time(8));
  EXPECT_NE(a, b);
  EXPECT_EQ(slab[a].pkt.size_bytes, 100u);
  EXPECT_EQ(slab[b].stamp, Time(8));
  EXPECT_EQ(slab.live(), 2u);
  slab.release(a);
  EXPECT_EQ(slab.live(), 1u);
  EXPECT_EQ(slab.allocations(), 2u);
}

TEST(PacketSlab, ReusesTheLastReleasedSlotFirst) {
  PacketSlab slab;
  const PacketSlab::Slot a = slab.alloc(sized(1), Time::zero());
  const PacketSlab::Slot b = slab.alloc(sized(2), Time::zero());
  slab.release(a);
  slab.release(b);
  EXPECT_EQ(slab.alloc(sized(3), Time::zero()), b);
  EXPECT_EQ(slab.alloc(sized(4), Time::zero()), a);
}

TEST(PacketSlab, ReferencesSurviveGrowth) {
  PacketSlab slab;
  const PacketSlab::Slot first = slab.alloc(sized(42), Time::zero());
  const Packet& pkt = slab[first].pkt;
  for (int i = 0; i < 10'000; ++i) (void)slab.alloc(sized(1), Time::zero());
  EXPECT_EQ(&pkt, &slab[first].pkt);
  EXPECT_EQ(pkt.size_bytes, 42u);
}

TEST(PacketSlab, ReleasedPacketIsPoisonedUnderAsan) {
  PacketSlab slab;
  const PacketSlab::Slot s = slab.alloc(sized(1), Time::zero());
  [[maybe_unused]] const Packet* pkt = &slab[s].pkt;
#ifdef CEBINAE_SLAB_ASAN
  EXPECT_FALSE(__asan_address_is_poisoned(pkt));
#endif
  slab.release(s);
#ifdef CEBINAE_SLAB_ASAN
  EXPECT_TRUE(__asan_address_is_poisoned(pkt));
  EXPECT_TRUE(__asan_address_is_poisoned(&slab[s].stamp));
#endif
  EXPECT_EQ(slab.alloc(sized(2), Time::zero()), s);
#ifdef CEBINAE_SLAB_ASAN
  EXPECT_FALSE(__asan_address_is_poisoned(pkt));
#endif
}

TEST(SlotFifo, KeepsInsertionOrderAndReleasesOnDestruction) {
  PacketSlab& slab = PacketSlab::local();
  const std::uint64_t before = slab.live();
  {
    SlotFifo q;
    for (std::uint32_t i = 1; i <= 5; ++i) q.push_back(slab, slab.alloc(sized(i), Time::zero()));
    EXPECT_EQ(q.size(), 5u);
    for (std::uint32_t i = 1; i <= 2; ++i) {
      const PacketSlab::Slot s = q.pop_front(slab);
      EXPECT_EQ(slab[s].pkt.size_bytes, i);
      slab.release(s);
    }
    EXPECT_EQ(slab[q.front()].pkt.size_bytes, 3u);
    EXPECT_EQ(slab[q.back()].pkt.size_bytes, 5u);
    EXPECT_EQ(slab.live(), before + 3);
  }
  EXPECT_EQ(slab.live(), before);
}

// Scenario-level accounting, under every queue discipline.
class SlabScenario : public ::testing::TestWithParam<QdiscKind> {
 protected:
  static ScenarioConfig config() {
    ScenarioConfig cfg;
    cfg.bottleneck_bps = 20'000'000;
    cfg.buffer_bytes = 64ull * kMtuBytes;
    cfg.qdisc = GetParam();
    cfg.duration = Seconds(2);
    cfg.seed = 7;
    cfg.flows = flows_of(CcaType::kNewReno, 4, Milliseconds(20));
    return cfg;
  }

  struct Totals {
    std::uint64_t admitted = 0;  // packets every queue disc admitted
    std::uint64_t queued = 0;    // packets waiting in a queue disc
    std::uint64_t on_wire = 0;   // frames serializing or propagating
  };

  // The transmitter's own counts equal its queue disc's dequeue counts on
  // every device: each dequeued packet starts serializing at once.
  static void assert_tx_equals_dequeued(Network& net) {
    for (NodeId n = 0; n < net.node_count(); ++n) {
      Node& node = net.node(n);
      for (std::size_t d = 0; d < node.device_count(); ++d) {
        const Device& dev = node.device(d);
        const QueueDiscStats& s = dev.qdisc().stats();
        ASSERT_EQ(dev.tx_packets(), s.dequeued_packets) << "node " << n << " device " << d;
        ASSERT_EQ(dev.tx_bytes(), s.dequeued_bytes) << "node " << n << " device " << d;
      }
    }
  }

  static Totals totals(Network& net) {
    Totals t;
    for (NodeId n = 0; n < net.node_count(); ++n) {
      Node& node = net.node(n);
      for (std::size_t d = 0; d < node.device_count(); ++d) {
        Device& dev = node.device(d);
        t.admitted += dev.qdisc().stats().enqueued_packets;
        t.queued += dev.qdisc().packet_count();
        t.on_wire += dev.frames_on_wire();
      }
    }
    return t;
  }
};

TEST_P(SlabScenario, OneAllocationPerAdmittedPacketPerHop) {
  // A discipline that fell back to QueueDisc's copying dequeue_slot()
  // adapter would allocate twice per hop.
  PacketSlab& slab = PacketSlab::local();
  const std::uint64_t before = slab.allocations();
  Scenario scenario(config());
  scenario.run();
  const Totals t = totals(scenario.network());
  EXPECT_GT(t.admitted, 1000u);
  EXPECT_EQ(slab.allocations() - before, t.admitted);
}

TEST_P(SlabScenario, LiveSlotsAreQueuedOrOnTheWire) {
  PacketSlab& slab = PacketSlab::local();
  const std::uint64_t before = slab.live();
  Scenario scenario(config());
  Network& net = scenario.network();
  int ticks = 0;
  std::uint64_t max_queued = 0;
  PacketGenerator check(net.scheduler(), Milliseconds(10), [&] {
    const Totals t = totals(net);
    ASSERT_EQ(slab.live() - before, t.queued + t.on_wire);
    ASSERT_NO_FATAL_FAILURE(assert_tx_equals_dequeued(net));
    max_queued = std::max(max_queued, t.queued);
    ++ticks;
  });
  check.start(Milliseconds(10));
  scenario.run();
  EXPECT_GT(ticks, 100);
  EXPECT_GT(max_queued, 0u);
}

TEST_P(SlabScenario, TeardownWithPacketsQueuedReleasesEverySlot) {
  PacketSlab& slab = PacketSlab::local();
  const std::uint64_t before = slab.live();
  {
    ScenarioConfig cfg = config();
    cfg.duration = Milliseconds(1500);
    Scenario scenario(cfg);
    scenario.run();
    const Totals t = totals(scenario.network());
    ASSERT_GT(t.queued, 0u);
    ASSERT_GT(t.on_wire, 0u);
    ASSERT_EQ(slab.live() - before, t.queued + t.on_wire);
  }
  EXPECT_EQ(slab.live(), before);
}

INSTANTIATE_TEST_SUITE_P(AllQdiscs, SlabScenario,
                         ::testing::Values(QdiscKind::kFifo, QdiscKind::kFqCoDel,
                                           QdiscKind::kCebinae, QdiscKind::kAfq,
                                           QdiscKind::kStrawman),
                         [](const ::testing::TestParamInfo<QdiscKind>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace cebinae
