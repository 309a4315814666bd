#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include "net/counting_sink.hpp"
#include "queueing/fifo_queue.hpp"

namespace cebinae {
namespace {

std::function<std::unique_ptr<QueueDisc>(int)> fifo_factory() {
  return [](int) { return std::make_unique<FifoQueue>(FifoQueue::unlimited()); };
}

TEST(Topology, ChainHasExpectedShape) {
  Network net;
  auto topo = build_chain(net, 3, 100'000'000, Microseconds(50), fifo_factory());
  EXPECT_EQ(topo.switches.size(), 4u);
  EXPECT_EQ(topo.bottlenecks.size(), 3u);
  for (Device* d : topo.bottlenecks) {
    EXPECT_EQ(d->rate_bps(), 100'000'000u);
    EXPECT_EQ(d->prop_delay(), Microseconds(50));
  }
}

TEST(Topology, HostsTraverseTheRightLinks) {
  Network net;
  auto topo = build_chain(net, 3, 100'000'000, Microseconds(50), fifo_factory());
  // Host pair crossing only the middle link (enter=1, exit=2).
  auto pair = attach_hosts(net, topo, 1, 2, 400'000'000, Microseconds(100),
                           Microseconds(50));
  net.build_routes();

  CountingSink sink(*pair.dst, 9);
  Packet p;
  p.flow = FlowId{pair.src->id(), pair.dst->id(), 1, 9};
  p.kind = Packet::Kind::kTcpData;
  p.size_bytes = 500;
  pair.src->send(p);
  net.scheduler().run();

  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(topo.bottlenecks[0]->tx_packets(), 0u);
  EXPECT_EQ(topo.bottlenecks[1]->tx_packets(), 1u);
  EXPECT_EQ(topo.bottlenecks[2]->tx_packets(), 0u);
}

TEST(Topology, EndToEndHostsCrossAllLinks) {
  Network net;
  auto topo = build_chain(net, 3, 100'000'000, Microseconds(50), fifo_factory());
  auto pair = attach_hosts(net, topo, 0, 3, 400'000'000, Microseconds(100),
                           Microseconds(50));
  net.build_routes();

  CountingSink sink(*pair.dst, 9);
  Packet p;
  p.flow = FlowId{pair.src->id(), pair.dst->id(), 1, 9};
  p.kind = Packet::Kind::kTcpData;
  p.size_bytes = 500;
  pair.src->send(p);
  net.scheduler().run();

  for (Device* d : topo.bottlenecks) EXPECT_EQ(d->tx_packets(), 1u);
}

TEST(Topology, PathRttFormula) {
  Network net;
  auto topo = build_chain(net, 2, 100'000'000, Microseconds(50), fifo_factory());
  // 2*(src 100us + 2 hops * 50us + dst 50us) = 500us.
  EXPECT_EQ(chain_path_rtt(topo, 0, 2, Microseconds(100), Microseconds(50)),
            Microseconds(500));
  // Single-hop path.
  EXPECT_EQ(chain_path_rtt(topo, 1, 2, Microseconds(100), Microseconds(50)),
            Microseconds(400));
}

TEST(Topology, QdiscFactoryReceivesLinkIndex) {
  Network net;
  std::vector<int> seen;
  auto topo = build_chain(net, 3, 100'000'000, Microseconds(50), [&](int link) {
    seen.push_back(link);
    return std::make_unique<FifoQueue>(FifoQueue::unlimited());
  });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace cebinae
