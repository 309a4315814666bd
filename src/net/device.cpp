#include "net/device.hpp"

#include <cassert>
#include <utility>

#include "net/node.hpp"

namespace cebinae {

Device::Device(Scheduler& sched, Node& owner, std::uint64_t rate_bps, Time prop_delay,
               std::unique_ptr<QueueDisc> qdisc)
    : sched_(sched),
      owner_(owner),
      rate_bps_(rate_bps),
      ns_per_byte_(rate_bps > 0 && 8'000'000'000 % rate_bps == 0
                       ? static_cast<std::int64_t>(8'000'000'000 / rate_bps)
                       : 0),
      prop_delay_(prop_delay),
      qdisc_(std::move(qdisc)),
      tx_done_(sched, [this] { try_transmit(); }),
      arrival_(sched, [this] { arrive(); }) {
  assert(rate_bps_ > 0);
  assert(qdisc_ != nullptr);
}

Node& Device::peer_node() {
  assert(peer_ != nullptr);
  return peer_->owner();
}

void Device::send(PacketSlab::Slot s) {
  qdisc_->enqueue_slot(s);
  try_transmit();
}

void Device::try_transmit() {
  if (tx_done_.armed()) return;
  const PacketSlab::Slot s = qdisc_->dequeue_slot();
  if (s == PacketSlab::kNone) return;
  PacketSlab& slab = PacketSlab::local();
  PacketSlab::Entry& frame = slab[s];

  const Time tx_time = serialization_delay(frame.size_bytes);
  tx_done_.arm_after(tx_time);
  assert(peer_ != nullptr && "device transmitted before the link was connected");
  // The arrival's key is reserved here, right after the tx-done event: this
  // position fixes the global (when, seq) order (DESIGN.md §11).
  frame.seq = sched_.reserve_seq();
  frame.stamp = sched_.now() + (tx_time + prop_delay_);
  assert((wire_.empty() || slab[wire_.back()].stamp <= frame.stamp) &&
         "link arrivals must be FIFO");
  wire_.push_back(slab, s);
  if (wire_.size() == 1) arm_head(slab);
}

void Device::arm_head(PacketSlab& slab) {
  const PacketSlab::Entry& head = slab[wire_.front()];
  arrival_.arm_reserved(head.stamp, head.seq);
}

void Device::arrive() {
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Slot s = wire_.pop_front(slab);
  if (!wire_.empty()) {
    arm_head(slab);
    // arm_head has just read the new head; the frame after it is the next
    // arrival's.
    slab.prefetch(slab[wire_.front()].next);
  }
  peer_->owner().receive(s);
}

}  // namespace cebinae
