// A counting UDP sink: unit tests bind it to a node's port and count the
// packets and payload bytes the network delivers there.
#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "net/packet.hpp"

namespace cebinae {

class UdpSink final : public PacketSink {
 public:
  UdpSink(Node& local, std::uint16_t port) : local_(local), port_(port) {
    local_.bind(port_, *this);
  }
  ~UdpSink() override { local_.unbind(port_); }

  void deliver(const Packet& pkt) override {
    ++packets_;
    bytes_ += pkt.payload_bytes;
  }

  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  Node& local_;
  std::uint16_t port_;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace cebinae
