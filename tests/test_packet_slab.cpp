// PacketSlab and SlotFifo, and the slab's accounting across whole scenarios:
// every Packet TCP sends survives its encoding into a 64-byte frame, one allocation per
// packet an endpoint sent (switches pass the sender's slot on), every live
// slot queued or on the wire, and none left behind when a network is torn
// down mid-run.
#include "net/packet_slab.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

Packet sized(std::uint32_t size) {
  Packet p;
  p.size_bytes = size;
  return p;
}

void expect_same(const Packet& want, const Packet& got) {
  EXPECT_EQ(got.flow, want.flow);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.size_bytes, want.size_bytes);
  EXPECT_EQ(got.payload_bytes, want.payload_bytes);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.ack, want.ack);
  for (std::size_t i = 0; i < want.sack.size(); ++i) {
    EXPECT_EQ(got.sack[i].begin, want.sack[i].begin) << "block " << i;
    EXPECT_EQ(got.sack[i].end, want.sack[i].end) << "block " << i;
  }
  EXPECT_EQ(got.sack_count, want.sack_count);
  EXPECT_EQ(got.ts_sent, want.ts_sent);
  EXPECT_EQ(got.ts_echo, want.ts_echo);
}

Packet tcp_data() {
  Packet data;
  data.flow = FlowId{3, 7, 40001, 5001};
  data.kind = Packet::Kind::kTcpData;
  data.size_bytes = kMtuBytes;
  data.payload_bytes = kMssBytes;
  data.seq = 1'448'000;
  data.ts_sent = Milliseconds(1234);
  return data;
}

// An ACK as TCP sends it, with `n` SACK blocks.
Packet tcp_ack(std::uint8_t n) {
  Packet ack;
  ack.flow = tcp_data().flow.reversed();
  ack.kind = Packet::Kind::kTcpAck;
  ack.size_bytes = kAckBytes;
  ack.ack = 1'449'448;
  ack.ts_echo = Milliseconds(1234);
  for (std::uint8_t i = 0; i < n; ++i) {
    ack.sack[i] = Packet::SackBlock{1'000'000u * (i + 2), 1'000'000u * (i + 2) + 1448};
  }
  ack.sack_count = n;
  return ack;
}

// A data segment and ACKs as TCP sends them, and each kind with its own
// fields at their extremes.
std::vector<Packet> round_trip_cases() {
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  std::vector<Packet> cases;

  cases.push_back(tcp_data());
  for (std::uint8_t n = 0; n <= 3; ++n) cases.push_back(tcp_ack(n));

  // A block of zeros inside sack_count.
  Packet zero_block = tcp_ack(0);
  zero_block.sack_count = 1;
  cases.push_back(zero_block);

  Packet data_extremes;
  data_extremes.flow = FlowId{std::numeric_limits<NodeId>::max(), 0, 65535, 1};
  data_extremes.size_bytes = kMax32;
  data_extremes.payload_bytes = kMax32;
  data_extremes.seq = kMax64;
  data_extremes.ts_sent = Time::max();
  cases.push_back(data_extremes);

  Packet ack_extremes = tcp_ack(0);
  ack_extremes.size_bytes = kMax32;
  ack_extremes.payload_bytes = kMax32;
  ack_extremes.ack = kMax64;
  ack_extremes.ts_echo = Time::max();
  ack_extremes.sack = {{{kMax64, kMax64}, {kMax64, kMax64}, {kMax64, kMax64}}};
  ack_extremes.sack_count = 3;
  cases.push_back(ack_extremes);

  cases.emplace_back();  // all defaults
  return cases;
}

TEST(PacketSlab, FrameIsOneCacheLine) {
  PacketSlab slab;
  std::vector<PacketSlab::Slot> slots;
  for (int i = 0; i < 300; ++i) slots.push_back(slab.alloc(sized(1), Time::zero()));
  for (const PacketSlab::Slot s : slots) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&slab[s]) % 64, 0u) << "slot " << s;
  }
}

TEST(PacketSlab, EveryFieldSurvivesAllocAndDecode) {
  PacketSlab slab;
  for (const Packet& want : round_trip_cases()) {
    const PacketSlab::Slot s = slab.alloc(want, Time(42));
    expect_same(want, slab.packet(s));
    EXPECT_EQ(slab[s].stamp, Time(42));
    EXPECT_EQ(slab[s].size_bytes, want.size_bytes);
    EXPECT_EQ(slab[s].flow, want.flow);
    EXPECT_EQ(slab[s].kind, want.kind);
    slab.release(s);
  }
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(slab.live_extensions(), 0u);
}

// A frame takes a record exactly when it carries SACK blocks: none for a
// data segment or an ACK without them, one for an ACK with one to three.
TEST(PacketSlab, ExtensionOnlyForFieldsTheFrameLeavesOut) {
  PacketSlab slab;
  const PacketSlab::Slot data = slab.alloc(tcp_data(), Time::zero());
  EXPECT_EQ(slab[data].ext, PacketSlab::kNone);
  EXPECT_EQ(slab.live_extensions(), 0u);
  slab.release(data);

  for (std::uint8_t n = 0; n <= 3; ++n) {
    SCOPED_TRACE(static_cast<int>(n));
    const PacketSlab::Slot ack = slab.alloc(tcp_ack(n), Time::zero());
    EXPECT_EQ(slab[ack].ext != PacketSlab::kNone, n > 0);
    EXPECT_EQ(slab.live_extensions(), n > 0 ? 1u : 0u);
    EXPECT_EQ(slab.live_extensions(), slab.frames_with_extension());
    slab.release(ack);
    EXPECT_EQ(slab.live_extensions(), 0u);
    EXPECT_EQ(slab.frames_with_extension(), 0u);
  }
}

TEST(PacketSlab, CountsLiveSlotsAndAllocations) {
  PacketSlab slab;
  const PacketSlab::Slot a = slab.alloc(sized(100), Time(7));
  const PacketSlab::Slot b = slab.alloc(sized(200), Time(8));
  EXPECT_NE(a, b);
  EXPECT_EQ(slab[a].size_bytes, 100u);
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
  const PacketSlab::Entry& frame = slab[first];
  for (int i = 0; i < 10'000; ++i) (void)slab.alloc(sized(1), Time::zero());
  EXPECT_EQ(&frame, &slab[first]);
  EXPECT_EQ(frame.size_bytes, 42u);
}

TEST(PacketSlab, ReleasedPacketIsPoisonedUnderAsan) {
  PacketSlab slab;
  const PacketSlab::Slot s = slab.alloc(sized(1), Time::zero());
  [[maybe_unused]] const PacketSlab::Entry* frame = &slab[s];
#ifdef CEBINAE_SLAB_ASAN
  EXPECT_FALSE(__asan_address_is_poisoned(&frame->size_bytes));
#endif
  slab.release(s);
#ifdef CEBINAE_SLAB_ASAN
  // Everything but the free list's link.
  EXPECT_FALSE(__asan_address_is_poisoned(&frame->next));
  EXPECT_TRUE(__asan_address_is_poisoned(&frame->ext));
  EXPECT_TRUE(__asan_address_is_poisoned(&frame->stamp));
  EXPECT_TRUE(__asan_address_is_poisoned(&frame->size_bytes));
  EXPECT_TRUE(__asan_address_is_poisoned(&frame->sack_count));
#endif
  EXPECT_EQ(slab.alloc(sized(2), Time::zero()), s);
#ifdef CEBINAE_SLAB_ASAN
  EXPECT_FALSE(__asan_address_is_poisoned(&frame->size_bytes));
  EXPECT_FALSE(__asan_address_is_poisoned(&frame->sack_count));
#endif
}

TEST(PacketSlab, ReleasedExtensionIsPoisonedUnderAsan) {
  PacketSlab slab;
  Packet ack = sized(kAckBytes);
  ack.kind = Packet::Kind::kTcpAck;
  ack.sack[0] = Packet::SackBlock{10, 20};
  ack.sack_count = 1;
  const PacketSlab::Slot s = slab.alloc(ack, Time::zero());
  ASSERT_NE(slab[s].ext, PacketSlab::kNone);
  [[maybe_unused]] const PacketSlab::Extension* ext = &slab.extension(slab[s].ext);
#ifdef CEBINAE_SLAB_ASAN
  EXPECT_FALSE(__asan_address_is_poisoned(&ext->sack));
#endif
  slab.release(s);
  EXPECT_EQ(slab.live_extensions(), 0u);
#ifdef CEBINAE_SLAB_ASAN
  // Everything but the free list's link.
  EXPECT_FALSE(__asan_address_is_poisoned(&ext->next));
  EXPECT_TRUE(__asan_address_is_poisoned(&ext->sack[0].begin));
  EXPECT_TRUE(__asan_address_is_poisoned(&ext->sack[1].end));
  EXPECT_TRUE(__asan_address_is_poisoned(&ext->sack[2].end));
#endif
  // The next SACK-carrying frame reuses the record.
  const PacketSlab::Slot again = slab.alloc(ack, Time::zero());
  EXPECT_EQ(&slab.extension(slab[again].ext), ext);
#ifdef CEBINAE_SLAB_ASAN
  EXPECT_FALSE(__asan_address_is_poisoned(&ext->sack));
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
      EXPECT_EQ(slab[s].size_bytes, i);
      slab.release(s);
    }
    EXPECT_EQ(slab[q.front()].size_bytes, 3u);
    EXPECT_EQ(slab[q.back()].size_bytes, 5u);
    EXPECT_EQ(slab.live(), before + 3);
  }
  EXPECT_EQ(slab.live(), before);
}

// Keeps every packet it is handed.
class RecordingSink final : public PacketSink {
 public:
  RecordingSink(Node& local, std::uint16_t port) : local_(local), port_(port) {
    local_.bind(port_, *this);
  }
  ~RecordingSink() override { local_.unbind(port_); }
  void deliver(const Packet& pkt) override { packets.push_back(pkt); }

  std::vector<Packet> packets;

 private:
  Node& local_;
  std::uint16_t port_;
};

TEST(SlotHandoff, SwitchesForwardTheSendersSlot) {
  // h0 - s1 - s2 - h3: the sender allocates the frame's one slot; neither
  // switch allocates another, and the destination delivers every field.
  Network net;
  Node& h0 = net.add_node();
  Node& s1 = net.add_node();
  Node& s2 = net.add_node();
  Node& h3 = net.add_node();
  const Network::LinkDevices a = net.link(h0, s1, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  const Network::LinkDevices b = net.link(s1, s2, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  const Network::LinkDevices c = net.link(s2, h3, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  net.build_routes();
  RecordingSink sink(h3, 9);

  PacketSlab& slab = PacketSlab::local();
  const std::uint64_t live_before = slab.live();
  const std::uint64_t allocs_before = slab.allocations();
  Packet pkt = tcp_ack(3);  // needs an extension record
  pkt.flow = FlowId{h0.id(), h3.id(), 1, 9};
  h0.send(pkt);
  EXPECT_EQ(slab.allocations() - allocs_before, 1u);

  // Stop at each hop's transmit: the frame is on that hop's wire, in the
  // slot the sender allocated.
  Scheduler& sched = net.scheduler();
  for (const Device* hop : {&a.ab, &b.ab, &c.ab}) {
    while (hop->tx_packets() == 0) {
      ASSERT_LT(sched.now(), Milliseconds(1));
      sched.run_until(sched.now() + Nanoseconds(100));
    }
    EXPECT_EQ(hop->frames_on_wire(), 1u);
    EXPECT_EQ(slab.live() - live_before, 1u);
    EXPECT_EQ(slab.allocations() - allocs_before, 1u);
  }
  sched.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  expect_same(pkt, sink.packets[0]);
  EXPECT_EQ(slab.allocations() - allocs_before, 1u);
  EXPECT_EQ(slab.live(), live_before);
  EXPECT_EQ(s1.routing_drops() + s2.routing_drops(), 0u);
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
  // A packet takes one slot when its endpoint sends it and keeps it to its
  // destination: the slab allocates once per segment and ACK sent, however
  // many hops admit the packet. A discipline that fell back to QueueDisc's
  // enqueue()/dequeue() adapters would allocate again at its hop.
  PacketSlab& slab = PacketSlab::local();
  const std::uint64_t before = slab.allocations();
  Scenario scenario(config());
  scenario.run();
  std::uint64_t sent = 0;
  for (std::size_t f = 0; f < scenario.flow_ids().size(); ++f) {
    sent += scenario.sender(f).segments_sent() + scenario.receiver(f).acks_sent();
  }
  const Totals t = totals(scenario.network());
  EXPECT_GT(sent, 1000u);
  EXPECT_EQ(slab.allocations() - before, sent);
  EXPECT_GT(t.admitted, sent);  // every packet crosses two or more hops
}

TEST_P(SlabScenario, LiveSlotsAreQueuedOrOnTheWire) {
  PacketSlab& slab = PacketSlab::local();
  const std::uint64_t before = slab.live();
  Scenario scenario(config());
  Network& net = scenario.network();
  int ticks = 0;
  std::uint64_t max_queued = 0;
  std::uint64_t max_extensions = 0;
  Timer check(net.scheduler(), [&] {
    check.arm_after(Milliseconds(10));
    const Totals t = totals(net);
    ASSERT_EQ(slab.live() - before, t.queued + t.on_wire);
    ASSERT_EQ(slab.live_extensions(), slab.frames_with_extension());
    max_queued = std::max(max_queued, t.queued);
    max_extensions = std::max(max_extensions, slab.live_extensions());
    ++ticks;
  });
  check.arm_after(Milliseconds(10));
  scenario.run();
  EXPECT_GT(ticks, 100);
  EXPECT_GT(max_queued, 0u);
  EXPECT_GT(max_extensions, 0u);  // SACK blocks were in flight
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
