// Point-to-point network device: one half of a full-duplex link.
//
// A device owns the egress queue disc for its direction. Transmission
// serializes packets at the link rate; propagation adds a fixed delay before
// the peer's node receives the frame.
//
// Packets stay in the slab slot their sender encoded them into
// (net/packet_slab.hpp). When the transmitter takes a slot from the queue
// disc, it links the slot into the device's delay line, a SlotFifo, instead
// of scheduling one event per frame. The delay is constant and the
// transmitter serializes one frame at a time, so frames arrive in the order
// they were sent: a FIFO with one timer, armed for its head. Each slot
// keeps the (arrival, seq) key reserved when its frame was sent (see
// Scheduler::reserve_seq), so the global event order is the same as with
// one propagation event per frame (DESIGN.md §11). The arrival hands the
// slot to the peer node, which forwards or delivers it.
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "queueing/queue_disc.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {

class Node;

class Device {
 public:
  Device(Scheduler& sched, Node& owner, std::uint64_t rate_bps, Time prop_delay,
         std::unique_ptr<QueueDisc> qdisc);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  void set_peer(Device& peer) { peer_ = &peer; }

  // Offers the frame in slab slot `s` to the queue disc, which owns it from
  // here; starts the transmitter if idle.
  void send(PacketSlab::Slot s);

  [[nodiscard]] QueueDisc& qdisc() { return *qdisc_; }
  [[nodiscard]] const QueueDisc& qdisc() const { return *qdisc_; }
  [[nodiscard]] std::uint64_t rate_bps() const { return rate_bps_; }
  [[nodiscard]] Time prop_delay() const { return prop_delay_; }
  [[nodiscard]] Node& owner() { return owner_; }
  [[nodiscard]] Node& peer_node();
  // The other half of this device's link; nullptr before set_peer.
  [[nodiscard]] Device* peer() const { return peer_; }

  // Bytes of every frame the transmitter has started to serialize onto the
  // wire (the paper's per-port egress transmit counter). A frame counts when
  // its serialization starts, not when it ends: the transmitter starts each
  // frame as it dequeues it, so these are the queue disc's dequeue counts.
  [[nodiscard]] std::uint64_t tx_bytes() const { return qdisc_->stats().dequeued_bytes; }
  [[nodiscard]] std::uint64_t tx_packets() const { return qdisc_->stats().dequeued_packets; }
  // Frames handed to the wire (serializing or propagating) that the peer
  // has not received yet.
  [[nodiscard]] std::size_t frames_on_wire() const { return wire_.size(); }

  [[nodiscard]] Time serialization_delay(std::uint32_t bytes) const {
    if (ns_per_byte_ != 0) return Time(static_cast<std::int64_t>(bytes) * ns_per_byte_);
    return Time(static_cast<std::int64_t>(bytes) * 8 * 1'000'000'000 /
                static_cast<std::int64_t>(rate_bps_));
  }

 private:
  void try_transmit();
  void arm_head(PacketSlab& slab);
  // Arrival of the head frame: pops it, re-arms for the next head and hands
  // its slot to the peer node.
  void arrive();

  Scheduler& sched_;
  Node& owner_;
  std::uint64_t rate_bps_;
  // 8e9 / rate_bps_ when that divides exactly (1 and 4 Gbps: 8 and 2 ns),
  // so a frame's serialization costs a multiply; 0 keeps the division.
  std::int64_t ns_per_byte_;
  Time prop_delay_;
  std::unique_ptr<QueueDisc> qdisc_;
  Device* peer_ = nullptr;
  // Delay line: frames on the wire, oldest first. Each slot's `stamp` is its
  // arrival time and `seq` the arrival's reserved scheduler seq.
  SlotFifo wire_;
  Timer tx_done_;  // end of the current frame's serialization; armed while busy
  Timer arrival_;  // the delay line's head reaches the peer
};

}  // namespace cebinae
