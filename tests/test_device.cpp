#include "net/device.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/network.hpp"
#include "queueing/fifo_queue.hpp"
#include "workload/udp_app.hpp"

namespace cebinae {
namespace {

// Two nodes, one link; a UDP sink on node B counts arrivals.
struct Harness {
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  Network::LinkDevices devs;
  UdpSink sink{b, 9};

  explicit Harness(std::uint64_t rate_bps = 8'000'000, Time delay = Milliseconds(1))
      : devs(net.link(a, b, rate_bps, delay, nullptr, nullptr)) {
    net.build_routes();
  }

  Packet make_packet(std::uint32_t size) {
    Packet p;
    p.flow = FlowId{a.id(), b.id(), 1, 9};
    p.kind = Packet::Kind::kUdp;
    p.size_bytes = size;
    p.payload_bytes = size - kHeaderBytes;
    return p;
  }
};

TEST(Device, SerializationDelayEqualsDivisionFormula) {
  // Rates dividing 8e9 multiply by a precomputed ns per byte; the rest
  // divide. Both must give the division's result.
  Network net;
  Node& a = net.add_node();
  for (const std::uint64_t rate : {1'000'000ull, 100'000'000ull, 400'000'000ull,
                                   1'000'000'000ull, 3'000'000'000ull, 4'000'000'000ull,
                                   10'000'000'000ull, 40'000'000'000ull}) {
    Device dev(net.scheduler(), a, rate, Milliseconds(1),
               std::make_unique<FifoQueue>(FifoQueue::unlimited()));
    for (std::uint32_t bytes = 1; bytes <= 9000; ++bytes) {
      const Time want(static_cast<std::int64_t>(bytes) * 8 * 1'000'000'000 /
                      static_cast<std::int64_t>(rate));
      ASSERT_EQ(dev.serialization_delay(bytes), want) << rate << " bps, " << bytes << " B";
    }
  }
}

TEST(Device, SerializationDelayMatchesRate) {
  Harness h(8'000'000);  // 1 byte/us
  EXPECT_EQ(h.devs.ab.serialization_delay(1000), Microseconds(1000));
  EXPECT_EQ(h.devs.ab.serialization_delay(1), Microseconds(1));
}

TEST(Device, PacketArrivesAfterSerializationPlusPropagation) {
  Harness h(8'000'000, Milliseconds(1));
  h.a.send(h.make_packet(1000));
  // 1000 B at 1 B/us = 1 ms serialization + 1 ms propagation.
  h.net.scheduler().run_until(Milliseconds(2) - Nanoseconds(1));
  EXPECT_EQ(h.sink.packets(), 0u);
  h.net.scheduler().run_until(Milliseconds(2));
  EXPECT_EQ(h.sink.packets(), 1u);
}

TEST(Device, BackToBackPacketsSerializeSequentially) {
  Harness h(8'000'000, Time::zero());
  for (int i = 0; i < 3; ++i) h.a.send(h.make_packet(1000));
  h.net.scheduler().run_until(Milliseconds(1));
  EXPECT_EQ(h.sink.packets(), 1u);
  h.net.scheduler().run_until(Milliseconds(3));
  EXPECT_EQ(h.sink.packets(), 3u);
}

TEST(Device, TxCountersTrackWireBytes) {
  Harness h;
  h.a.send(h.make_packet(700));
  h.a.send(h.make_packet(300));
  h.net.scheduler().run();
  EXPECT_EQ(h.devs.ab.tx_bytes(), 1000u);
  EXPECT_EQ(h.devs.ab.tx_packets(), 2u);
  EXPECT_EQ(h.devs.ba.tx_bytes(), 0u);
}

TEST(Device, QueueDropsDoNotReachPeer) {
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  // Queue fits exactly one MTU.
  auto devs = net.link(a, b, 8'000'000, Time::zero(),
                       std::make_unique<FifoQueue>(kMtuBytes), nullptr);
  net.build_routes();
  UdpSink sink(b, 9);

  Packet p;
  p.flow = FlowId{a.id(), b.id(), 1, 9};
  p.kind = Packet::Kind::kUdp;
  p.size_bytes = kMtuBytes;
  p.payload_bytes = kMssBytes;
  // First packet dequeues immediately (transmitter idle); the next two fill
  // and overflow the queue.
  a.send(p);
  a.send(p);
  a.send(p);
  net.scheduler().run();
  EXPECT_EQ(sink.packets(), 2u);
  EXPECT_EQ(devs.ab.qdisc().stats().dropped_packets, 1u);
}

TEST(Device, FullDuplexDirectionsAreIndependent) {
  Harness h(8'000'000, Milliseconds(1));
  UdpSink sink_a(h.a, 7);

  Packet fwd = h.make_packet(1000);
  Packet rev;
  rev.flow = FlowId{h.b.id(), h.a.id(), 1, 7};
  rev.kind = Packet::Kind::kUdp;
  rev.size_bytes = 1000;
  rev.payload_bytes = 1000 - kHeaderBytes;

  h.a.send(fwd);
  h.b.send(rev);
  h.net.scheduler().run();
  EXPECT_EQ(h.sink.packets(), 1u);
  EXPECT_EQ(sink_a.packets(), 1u);
}

// Records (arrival time, packet seq) at a node port.
struct ArrivalLog final : PacketSink {
  Scheduler& sched;
  std::vector<std::pair<Time, std::uint64_t>> arrivals;
  explicit ArrivalLog(Scheduler& s) : sched(s) {}
  void deliver(const Packet& pkt) override { arrivals.emplace_back(sched.now(), pkt.seq); }
};

TEST(Device, BackToBackFramesArriveFifoAtTxPlusProp) {
  Harness h(8'000'000, Milliseconds(5));  // 1000 B serialize in 1 ms
  Scheduler& sched = h.net.scheduler();
  ArrivalLog log(sched);
  h.b.bind(10, log);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    Packet p = h.make_packet(1000);
    p.flow.dst_port = 10;
    p.seq = i;
    h.a.send(p);
  }
  // Same timestamp as frame 2's arrival, scheduled before frame 2 started
  // serializing (its key was reserved at 1 ms): fires first.
  Timer at7(sched, [&] { log.arrivals.emplace_back(sched.now(), 100); });
  Timer at8(sched, [&] { log.arrivals.emplace_back(sched.now(), 200); });
  at7.arm_at(Milliseconds(7));
  sched.run_until(Milliseconds(4));
  // All three frames are on the wire behind one armed arrival event.
  EXPECT_EQ(h.devs.ab.frames_on_wire(), 3u);
  EXPECT_EQ(sched.pending_events(), 2u);  // head arrival + the 7 ms marker
  // Same timestamp as frame 3's arrival, scheduled after it was sent.
  at8.arm_at(Milliseconds(8));
  sched.run();
  EXPECT_EQ(log.arrivals, (std::vector<std::pair<Time, std::uint64_t>>{
                              {Milliseconds(6), 1},
                              {Milliseconds(7), 100},
                              {Milliseconds(7), 2},
                              {Milliseconds(8), 3},
                              {Milliseconds(8), 200}}));
  EXPECT_EQ(h.devs.ab.frames_on_wire(), 0u);
}

TEST(Device, TeardownWithFramesOnTheWire) {
  // The delay line owns the slab slots of in-flight frames and the queue
  // disc those of queued packets; destroying the network with frames still
  // propagating must release them all.
  const std::uint64_t before = PacketSlab::local().live();
  auto h = std::make_unique<Harness>(8'000'000, Milliseconds(50));
  for (int i = 0; i < 32; ++i) h->a.send(h->make_packet(1000));
  h->net.scheduler().run_until(Milliseconds(20));
  ASSERT_GT(h->devs.ab.frames_on_wire(), 1u);
  ASSERT_GT(h->devs.ab.qdisc().packet_count(), 0u);
  EXPECT_EQ(PacketSlab::local().live() - before,
            h->devs.ab.frames_on_wire() + h->devs.ab.qdisc().packet_count());
  h.reset();
  EXPECT_EQ(PacketSlab::local().live(), before);
}

}  // namespace
}  // namespace cebinae
