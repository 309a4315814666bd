#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "queueing/fifo_queue.hpp"
#include "topology/topology.hpp"

namespace cebinae {
namespace {

TEST(Network, NodeIdsAreSequential) {
  Network net;
  EXPECT_EQ(net.add_node().id(), 0u);
  EXPECT_EQ(net.add_node().id(), 1u);
  EXPECT_EQ(net.add_node().id(), 2u);
  EXPECT_EQ(net.node_count(), 3u);
  EXPECT_EQ(net.node(1).id(), 1u);
}

TEST(Network, LinkWiresPeersBothWays) {
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  auto devs = net.link(a, b, 1'000'000, Milliseconds(1), nullptr, nullptr);
  EXPECT_EQ(&devs.ab.owner(), &a);
  EXPECT_EQ(&devs.ba.owner(), &b);
  EXPECT_EQ(&devs.ab.peer_node(), &b);
  EXPECT_EQ(&devs.ba.peer_node(), &a);
  EXPECT_EQ(devs.ab.rate_bps(), 1'000'000u);
  EXPECT_EQ(devs.ab.prop_delay(), Milliseconds(1));
}

TEST(Network, NullQdiscDefaultsToUnlimitedFifo) {
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  auto devs = net.link(a, b, 1'000'000, Milliseconds(1), nullptr, nullptr);
  // Enqueue far beyond any reasonable limit; nothing may drop.
  Packet p;
  p.size_bytes = kMtuBytes;
  for (int i = 0; i < 10'000; ++i) devs.ab.qdisc().enqueue(p);
  EXPECT_EQ(devs.ab.qdisc().stats().dropped_packets, 0u);
}

TEST(Network, CustomQdiscIsInstalledOnForwardDirection) {
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  auto devs = net.link(a, b, 1'000'000, Milliseconds(1),
                       std::make_unique<FifoQueue>(kMtuBytes), nullptr);
  Packet p;
  p.size_bytes = kMtuBytes;
  EXPECT_TRUE(devs.ab.qdisc().enqueue(p));
  EXPECT_FALSE(devs.ab.qdisc().enqueue(p));  // limited
  EXPECT_TRUE(devs.ba.qdisc().enqueue(p));   // reverse stays unlimited
  EXPECT_TRUE(devs.ba.qdisc().enqueue(p));
}

TEST(Network, RngSeedControlsStreams) {
  Network a(42);
  Network b(42);
  Network c(43);
  const double va = a.rng().uniform(0, 1);
  const double vb = b.rng().uniform(0, 1);
  const double vc = c.rng().uniform(0, 1);
  EXPECT_DOUBLE_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(Network, BuildRoutesIsIdempotent) {
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  Node& c = net.add_node();
  net.link(a, b, 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.link(b, c, 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.build_routes();
  Device* first = a.route_to(c.id());
  net.build_routes();
  EXPECT_EQ(a.route_to(c.id()), first);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(&first->peer_node(), &b);
}

TEST(Network, EqualCostPathsKeepBfsDiscoveryOrder) {
  // A square a-b-c-d-a plus a second a-b link. Between opposite corners
  // both ways are two hops; BFS from the destination reaches the neighbour
  // linked to it first, so a reaches c through b and b reaches d through c.
  // Of the two a-b links, the first one linked carries the route both ways.
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  Node& c = net.add_node();
  Node& d = net.add_node();
  auto ab = net.link(a, b, 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.link(b, c, 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.link(c, d, 1'000'000, Milliseconds(1), nullptr, nullptr);
  auto da = net.link(d, a, 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.link(a, b, 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.build_routes();
  ASSERT_NE(a.route_to(c.id()), nullptr);
  EXPECT_EQ(a.route_to(c.id()), &ab.ab);
  ASSERT_NE(b.route_to(d.id()), nullptr);
  EXPECT_EQ(&b.route_to(d.id())->peer_node(), &c);
  EXPECT_EQ(c.route_to(a.id())->peer_node().id(), b.id());
  EXPECT_EQ(d.route_to(b.id()), &da.ab);
  EXPECT_EQ(a.route_to(b.id()), &ab.ab);
  EXPECT_EQ(b.route_to(a.id()), &ab.ba);
  EXPECT_EQ(a.route_to(a.id()), nullptr);
}

// The all-pairs search build_routes replaced, kept as the reference: a BFS
// from every node, each node's neighbours in link order, writing every
// node's first hop toward the destination.
std::vector<std::vector<Device*>> all_pairs_routes(Network& net) {
  const std::size_t n = net.node_count();
  std::vector<std::vector<Device*>> route(n);
  for (auto& table : route) table.assign(n, nullptr);
  for (NodeId dst = 0; dst < n; ++dst) {
    std::vector<bool> seen(n, false);
    seen[dst] = true;
    std::vector<NodeId> frontier{dst};
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      Node& cur = net.node(frontier[head]);
      for (std::size_t i = 0; i < cur.device_count(); ++i) {
        Device& out = cur.device(i);
        const NodeId nbr = out.peer_node().id();
        if (seen[nbr]) continue;
        seen[nbr] = true;
        route[nbr][dst] = out.peer();
        frontier.push_back(nbr);
      }
    }
  }
  return route;
}

// Every (src, dst) pair, dst == src and two ids past the last node included.
void expect_all_pairs_routes(Network& net) {
  net.build_routes();
  const auto want = all_pairs_routes(net);
  const NodeId n = static_cast<NodeId>(net.node_count());
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n + 2; ++dst) {
      EXPECT_EQ(net.node(src).route_to(dst), dst < n ? want[src][dst] : nullptr)
          << "src " << src << " dst " << dst;
    }
  }
}

Node& add_host(Network& net, Node& sw) {
  Node& h = net.add_node();
  net.link(h, sw, 1'000'000, Milliseconds(1), nullptr, nullptr);
  return h;
}

ChainTopology chain_with_hosts(Network& net, int links,
                               const std::vector<std::pair<int, int>>& paths) {
  ChainTopology topo = build_chain(net, links, 1'000'000, Milliseconds(1),
                                   [](int) -> std::unique_ptr<QueueDisc> { return nullptr; });
  for (const auto& [enter, exit] : paths) {
    (void)attach_hosts(net, topo, enter, exit, 1'000'000, Milliseconds(1), Milliseconds(1));
  }
  return topo;
}

TEST(Network, RoutesMatchAllPairsBfsOnDumbbell) {
  Network net;
  (void)chain_with_hosts(net, 1, {{0, 1}, {0, 1}, {0, 1}});
  expect_all_pairs_routes(net);
}

TEST(Network, RoutesMatchAllPairsBfsOnParkingLot) {
  Network net;
  (void)chain_with_hosts(net, 3, {{0, 3}, {0, 1}, {1, 2}, {2, 3}, {1, 3}});
  expect_all_pairs_routes(net);
}

TEST(Network, RoutesMatchAllPairsBfsOnSquareWithHosts) {
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  Node& c = net.add_node();
  Node& d = net.add_node();
  net.link(a, b, 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.link(b, c, 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.link(c, d, 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.link(d, a, 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.link(a, b, 1'000'000, Milliseconds(1), nullptr, nullptr);
  for (Node* corner : {&a, &b, &c, &d}) (void)add_host(net, *corner);
  expect_all_pairs_routes(net);
}

TEST(Network, RoutesMatchAllPairsBfsOnTwoNodes) {
  // Each node's one link ends at a node with one link: neither is a host.
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  auto ab = net.link(a, b, 1'000'000, Milliseconds(1), nullptr, nullptr);
  expect_all_pairs_routes(net);
  EXPECT_EQ(a.route_to(b.id()), &ab.ab);
  EXPECT_EQ(b.route_to(a.id()), &ab.ba);
}

TEST(Network, RoutesMatchAllPairsBfsWithParallelAccessLinks) {
  // A node with two links to its switch is no host.
  Network net;
  ChainTopology topo = chain_with_hosts(net, 1, {{0, 1}});
  Node& h = net.add_node();
  auto first = net.link(h, *topo.switches[0], 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.link(h, *topo.switches[0], 1'000'000, Milliseconds(1), nullptr, nullptr);
  expect_all_pairs_routes(net);
  EXPECT_EQ(h.route_to(topo.switches[1]->id()), &first.ab);
}

TEST(Network, RoutesMatchAllPairsBfsAcrossComponents) {
  Network net;
  (void)chain_with_hosts(net, 1, {{0, 1}, {0, 1}});
  (void)chain_with_hosts(net, 1, {{0, 1}, {0, 1}});
  expect_all_pairs_routes(net);
}

TEST(Network, RoutesMatchAllPairsBfsAfterRebuild) {
  // Linking again turns a host into a switch (the dumbbell's first sender)
  // and a node into a host (a, once its neighbour b gains a second link).
  Network net;
  ChainTopology topo = chain_with_hosts(net, 1, {{0, 1}});
  const HostPair pair =
      attach_hosts(net, topo, 0, 1, 1'000'000, Milliseconds(1), Milliseconds(1));
  Node& a = net.add_node();
  Node& b = net.add_node();
  net.link(a, b, 1'000'000, Milliseconds(1), nullptr, nullptr);
  expect_all_pairs_routes(net);
  net.link(*pair.src, *topo.switches[1], 1'000'000, Milliseconds(1), nullptr, nullptr);
  net.link(b, *topo.switches[0], 1'000'000, Milliseconds(1), nullptr, nullptr);
  expect_all_pairs_routes(net);
}

TEST(Network, SchedulerIsShared) {
  Network net;
  bool fired = false;
  Timer t(net.scheduler(), [&] { fired = true; });
  t.arm_after(Milliseconds(1));
  net.scheduler().run();
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace cebinae
