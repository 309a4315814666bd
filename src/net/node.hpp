// A network node: host or switch.
//
// Switches forward packets via a static routing table (destination node ->
// egress device); a host sends through its one link whatever its switch can
// route. Both deliver locally-addressed packets to the sink registered on
// the destination port.
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

  // Static routing, installed by Network::build_routes. A switch (any node
  // that is not a host) keeps a flat table indexed by destination NodeId:
  // one bounds check and one load per forwarded packet. A host keeps no
  // table: everything it can reach leaves through its one link, and it can
  // reach exactly what its switch can reach, plus the switch itself.
  void set_routes(std::vector<Device*> table);
  void set_uplink(Device& uplink);
  [[nodiscard]] Device* route_to(NodeId dst) const {
    if (uplink_ == nullptr) return table_route(dst);
    return dst != id_ && (dst == gateway_->id_ || gateway_->table_route(dst) != nullptr)
               ? uplink_
               : nullptr;
  }

  // Register/unregister the local sink for a destination port.
  void bind(std::uint16_t port, PacketSink& sink);
  void unbind(std::uint16_t port);

  // Entry point for frames arriving from the wire; takes the slab slot. A
  // switch hands the slot to its egress device as it is. The destination
  // decodes the frame, releases the slot and delivers the packet to the
  // sink bound to its port.
  void receive(PacketSlab::Slot s);

  // Send a locally originated packet toward pkt.flow.dst: the packet's one
  // encode into a slab slot, which it keeps up to its destination.
  void send(const Packet& pkt);

  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_packets_; }
  [[nodiscard]] std::uint64_t routing_drops() const { return routing_drops_; }

 private:
  [[nodiscard]] PacketSink* sink_for(std::uint16_t port) const;
  [[nodiscard]] Device* table_route(NodeId dst) const {
    return dst < routes_.size() ? routes_[dst] : nullptr;
  }

  NodeId id_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<Device*> routes_;  // a switch's table, indexed by destination NodeId
  Device* uplink_ = nullptr;     // a host's one link; nullptr on a switch
  const Node* gateway_ = nullptr;  // the switch at the far end of uplink_
  // A node binds a handful of ports; a scanned flat vector beats a hash map
  // on the delivery path and keeps iteration deterministic.
  std::vector<std::pair<std::uint16_t, PacketSink*>> sinks_;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t routing_drops_ = 0;
};

}  // namespace cebinae
