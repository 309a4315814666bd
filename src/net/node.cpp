#include "net/node.hpp"

#include <cassert>
#include <utility>

namespace cebinae {

Device& Node::add_device(std::unique_ptr<Device> dev) {
  devices_.push_back(std::move(dev));
  return *devices_.back();
}

void Node::set_route(NodeId dst, Device& egress) {
  if (dst >= routes_.size()) routes_.resize(dst + 1, nullptr);
  routes_[dst] = &egress;
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

void Node::receive(const Packet& pkt) {
  if (pkt.flow.dst == id_) {
    PacketSink* sink = sink_for(pkt.flow.dst_port);
    if (sink == nullptr) return;
    ++delivered_packets_;
    sink->deliver(pkt);
    return;
  }
  send(pkt);
}

void Node::send(const Packet& pkt) {
  Device* egress = route_to(pkt.flow.dst);
  if (egress == nullptr) {
    ++routing_drops_;
    return;
  }
  egress->send(pkt);
}

}  // namespace cebinae
