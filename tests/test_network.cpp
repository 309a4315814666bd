#include "net/network.hpp"

#include <gtest/gtest.h>

#include "queueing/fifo_queue.hpp"

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
