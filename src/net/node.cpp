#include "net/node.hpp"

#include <cassert>
#include <utility>

namespace cebinae {

Device& Node::add_device(std::unique_ptr<Device> dev) {
  devices_.push_back(std::move(dev));
  return *devices_.back();
}

void Node::set_routes(std::vector<Device*> table) {
  routes_ = std::move(table);
  uplink_ = nullptr;
  gateway_ = nullptr;
}

void Node::set_uplink(Device& uplink) {
  std::vector<Device*>().swap(routes_);
  uplink_ = &uplink;
  gateway_ = &uplink.peer_node();
}

PacketSink* Node::sink_for(std::uint16_t port) const {
  for (const auto& [p, sink] : sinks_) {
    if (p == port) return sink;
  }
  return nullptr;
}

void Node::bind(std::uint16_t port, PacketSink& sink) {
  assert(sink_for(port) == nullptr && "port already bound");
  sinks_.emplace_back(port, &sink);
}

void Node::unbind(std::uint16_t port) {
  for (auto it = sinks_.begin(); it != sinks_.end(); ++it) {
    if (it->first == port) {
      sinks_.erase(it);
      return;
    }
  }
}

void Node::receive(PacketSlab::Slot s) {
  PacketSlab& slab = PacketSlab::local();
  const FlowId& flow = slab[s].flow;
  if (flow.dst != id_) {
    Device* egress = route_to(flow.dst);
    if (egress == nullptr) {
      ++routing_drops_;
      slab.release(s);
      return;
    }
    egress->send(s);
    return;
  }
  PacketSink* sink = sink_for(flow.dst_port);
  if (sink == nullptr) {
    slab.release(s);
    return;
  }
  ++delivered_packets_;
  const Packet pkt = slab.packet(s);
  // Released before delivery, so the reply the sink sends reuses the slot.
  slab.release(s);
  sink->deliver(pkt);
}

void Node::send(const Packet& pkt) {
  Device* egress = route_to(pkt.flow.dst);
  if (egress == nullptr) {
    ++routing_drops_;
    return;
  }
  egress->send(PacketSlab::local().alloc(pkt, Time::zero()));
}

}  // namespace cebinae
