#include "queueing/fifo_queue.hpp"

namespace cebinae {

bool FifoQueue::enqueue(Packet pkt) {
  if (bytes_ + pkt.size_bytes > limit_bytes_) return reject(pkt);
  bytes_ += pkt.size_bytes;
  ++stats_.enqueued_packets;
  PacketSlab& slab = PacketSlab::local();
  q_.push_back(slab, slab.alloc(pkt, sojourn_now()));
  return true;
}

PacketSlab::Slot FifoQueue::dequeue_slot() {
  if (q_.empty()) return PacketSlab::kNone;
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Slot s = q_.pop_front(slab);
  bytes_ -= slab[s].pkt.size_bytes;
  account_dequeue(slab[s]);
  return s;
}

}  // namespace cebinae
