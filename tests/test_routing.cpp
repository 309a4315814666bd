#include <gtest/gtest.h>

#include "net/counting_sink.hpp"
#include "net/network.hpp"

namespace cebinae {
namespace {

Packet data_packet(NodeId src, NodeId dst, std::uint16_t dst_port) {
  Packet p;
  p.flow = FlowId{src, dst, 1, dst_port};
  p.kind = Packet::Kind::kTcpData;
  p.size_bytes = 500;
  p.payload_bytes = 500 - kHeaderBytes;
  return p;
}

TEST(Routing, ForwardsAcrossAChain) {
  Network net;
  // h0 - s1 - s2 - h3
  Node& h0 = net.add_node();
  Node& s1 = net.add_node();
  Node& s2 = net.add_node();
  Node& h3 = net.add_node();
  net.link(h0, s1, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  net.link(s1, s2, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  net.link(s2, h3, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  net.build_routes();

  CountingSink sink(h3, 9);
  h0.send(data_packet(h0.id(), h3.id(), 9));
  net.scheduler().run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(h3.delivered_packets(), 1u);
}

TEST(Routing, PicksShortestPath) {
  Network net;
  // Square with a diagonal shortcut: a-b-d is 2 hops, a-c-e-d is 3.
  Node& a = net.add_node();
  Node& b = net.add_node();
  Node& c = net.add_node();
  Node& e = net.add_node();
  Node& d = net.add_node();
  auto ab = net.link(a, b, 1'000'000, Microseconds(1), nullptr, nullptr);
  auto ac = net.link(a, c, 1'000'000, Microseconds(1), nullptr, nullptr);
  net.link(c, e, 1'000'000, Microseconds(1), nullptr, nullptr);
  net.link(e, d, 1'000'000, Microseconds(1), nullptr, nullptr);
  net.link(b, d, 1'000'000, Microseconds(1), nullptr, nullptr);
  net.build_routes();

  CountingSink sink(d, 9);
  a.send(data_packet(a.id(), d.id(), 9));
  net.scheduler().run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_GT(ab.ab.tx_packets(), 0u);
  EXPECT_EQ(ac.ab.tx_packets(), 0u);
}

TEST(Routing, UnroutableDestinationCountsDrop) {
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  net.link(a, b, 1'000'000, Microseconds(1), nullptr, nullptr);
  net.build_routes();
  a.send(data_packet(a.id(), 99, 9));
  net.scheduler().run();
  EXPECT_EQ(a.routing_drops(), 1u);
}

TEST(Routing, HostToOtherComponentCountsDropAtHost) {
  // h0 - s1 - h2, and apart from them x - y. The host h0 keeps no table;
  // its switch cannot reach x, so h0 drops the packet before sending it.
  Network net;
  Node& h0 = net.add_node();
  Node& s1 = net.add_node();
  Node& h2 = net.add_node();
  Node& x = net.add_node();
  Node& y = net.add_node();
  auto up = net.link(h0, s1, 1'000'000, Microseconds(1), nullptr, nullptr);
  net.link(s1, h2, 1'000'000, Microseconds(1), nullptr, nullptr);
  net.link(x, y, 1'000'000, Microseconds(1), nullptr, nullptr);
  net.build_routes();
  h0.send(data_packet(h0.id(), x.id(), 9));
  net.scheduler().run();
  EXPECT_EQ(h0.routing_drops(), 1u);
  EXPECT_EQ(up.ab.tx_packets(), 0u);
  EXPECT_EQ(s1.routing_drops(), 0u);
}

TEST(Routing, UnboundPortIsDiscardedAtDestination) {
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  net.link(a, b, 1'000'000, Microseconds(1), nullptr, nullptr);
  net.build_routes();
  a.send(data_packet(a.id(), b.id(), 12345));
  net.scheduler().run();
  EXPECT_EQ(b.delivered_packets(), 0u);
}

TEST(Routing, BindRejectsDuplicatePort) {
  Network net;
  Node& a = net.add_node();
  CountingSink s1(a, 9);
  EXPECT_DEATH({ CountingSink s2(a, 9); }, "");
}

TEST(Routing, RebindAfterUnbind) {
  Network net;
  Node& a = net.add_node();
  { CountingSink s1(a, 9); }
  CountingSink s2(a, 9);  // destructor unbound the port; rebinding must work
  SUCCEED();
}

}  // namespace
}  // namespace cebinae
