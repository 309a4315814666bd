#include "net/counting_sink.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace cebinae {
namespace {

TEST(CountingSink, CountsPayloadBytes) {
  Network net;
  Node& a = net.add_node();
  Node& b = net.add_node();
  net.link(a, b, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  net.build_routes();
  CountingSink sink{b, 9};
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.flow = FlowId{a.id(), b.id(), 1, 9};
    p.kind = Packet::Kind::kTcpData;
    p.size_bytes = 1000;
    p.payload_bytes = 1000 - kHeaderBytes;
    a.send(std::move(p));
  }
  net.scheduler().run();
  EXPECT_EQ(sink.packets(), 5u);
  EXPECT_EQ(sink.bytes(), sink.packets() * (1000 - kHeaderBytes));
}

}  // namespace
}  // namespace cebinae
