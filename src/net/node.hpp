// A network node: host or switch.
//
// Nodes forward packets via a static routing table (destination node ->
// egress device) and deliver locally-addressed packets to the sink
// registered on the destination port.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/device.hpp"
#include "net/packet.hpp"

namespace cebinae {

class Node {
 public:
  explicit Node(NodeId id) : id_(id) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }

  Device& add_device(std::unique_ptr<Device> dev);
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] Device& device(std::size_t i) { return *devices_.at(i); }

  // Static routing: packets destined to `dst` leave through `egress`.
  void set_route(NodeId dst, Device& egress);
  // Size the routing table for `n` destinations at once; set_route alone
  // grows it one destination at a time.
  void size_routes(std::size_t n) {
    if (routes_.size() < n) routes_.resize(n, nullptr);
  }
  // Hot path: NodeIds are dense (assigned sequentially by Network), so the
  // table is a flat vector indexed by destination — one bounds check and one
  // load per forwarded packet instead of a hash lookup.
  [[nodiscard]] Device* route_to(NodeId dst) const {
    return dst < routes_.size() ? routes_[dst] : nullptr;
  }

  // Register/unregister the local sink for a destination port.
  void bind(std::uint16_t port, PacketSink& sink);
  void unbind(std::uint16_t port);

  // Entry point for packets arriving from the wire and for locally
  // originated traffic: delivers locally or forwards via the routing table.
  // Packets pass by reference along the forwarding path; the egress queue
  // disc takes the one copy per hop.
  void receive(const Packet& pkt);

  // Send a locally originated packet toward pkt.flow.dst.
  void send(const Packet& pkt);

  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_packets_; }
  [[nodiscard]] std::uint64_t routing_drops() const { return routing_drops_; }

 private:
  [[nodiscard]] PacketSink* sink_for(std::uint16_t port) const;

  NodeId id_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<Device*> routes_;  // indexed by destination NodeId
  // A node binds a handful of ports; a scanned flat vector beats a hash map
  // on the delivery path and keeps iteration deterministic.
  std::vector<std::pair<std::uint16_t, PacketSink*>> sinks_;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t routing_drops_ = 0;
};

}  // namespace cebinae
