// Packet and flow-identity types shared by the whole simulator.
//
// Packets are small value types; the simulator models only the metadata that
// congestion control and queueing react to (sizes, sequence numbers, ECN
// bits, timestamps) — payload bytes are never materialized.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <ostream>

#include "sim/time.hpp"

namespace cebinae {

// Wire-size constants. A full-sized frame is one MTU; the TCP/IP/Ethernet
// header overhead is folded into kHeaderBytes so goodput (payload delivered)
// and throughput (frames on the wire) can both be measured.
inline constexpr std::uint32_t kMtuBytes = 1500;
inline constexpr std::uint32_t kHeaderBytes = 52;  // 14 eth + 20 IP + ~18 TCP w/ options
inline constexpr std::uint32_t kMssBytes = kMtuBytes - kHeaderBytes;
inline constexpr std::uint32_t kAckBytes = 64;  // minimum Ethernet frame

using NodeId = std::uint32_t;

// Directional transport 5-tuple (protocol is implied by Packet::Kind).
struct FlowId {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  friend constexpr auto operator<=>(const FlowId&, const FlowId&) = default;

  // The flow id of traffic in the opposite direction (e.g., the ACK stream
  // of a data flow).
  [[nodiscard]] constexpr FlowId reversed() const { return {dst, src, dst_port, src_port}; }
};

struct FlowIdHash {
  std::size_t operator()(const FlowId& f) const {
    std::uint64_t key = (static_cast<std::uint64_t>(f.src) << 32) | f.dst;
    std::uint64_t key2 = (static_cast<std::uint64_t>(f.src_port) << 16) | f.dst_port;
    key ^= key2 + 0x9e3779b97f4a7c15ULL + (key << 6) + (key >> 2);
    // splitmix64 finalizer for good bit dispersion (the flow cache relies on it).
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ULL;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return static_cast<std::size_t>(key);
  }
};

inline std::ostream& operator<<(std::ostream& os, const FlowId& f) {
  return os << f.src << ':' << f.src_port << "->" << f.dst << ':' << f.dst_port;
}

struct Packet {
  enum class Kind : std::uint8_t { kTcpData, kTcpAck, kUdp };

  FlowId flow;
  Kind kind = Kind::kTcpData;
  std::uint32_t size_bytes = 0;     // frame size on the wire
  std::uint32_t payload_bytes = 0;  // application bytes carried

  // Transport fields (TCP semantics; UDP leaves them zero).
  std::uint64_t seq = 0;  // first payload byte offset of this segment
  std::uint64_t ack = 0;  // cumulative ACK: next byte expected by receiver

  // SACK option (RFC 2018): up to 3 received-but-not-yet-acked byte ranges.
  struct SackBlock {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;  // exclusive
  };
  std::array<SackBlock, 3> sack{};
  std::uint8_t sack_count = 0;

  // Timestamp option: senders stamp ts_sent; receivers echo it in ts_echo so
  // the sender can take RTT samples without per-packet maps.
  Time ts_sent;
  Time ts_echo;

  // ECN state. `ect` is set by ECN-capable senders, `ce` by congested
  // routers, `ece` echoed on ACKs by receivers.
  bool ect = false;
  bool ce = false;
  bool ece = false;

  [[nodiscard]] std::uint64_t seq_end() const { return seq + payload_bytes; }
};

// Anything that terminates packets at a node (TCP sockets, UDP sinks, ...).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(const Packet& pkt) = 0;
};

}  // namespace cebinae
