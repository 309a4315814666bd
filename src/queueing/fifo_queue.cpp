#include "queueing/fifo_queue.hpp"

namespace cebinae {

bool FifoQueue::enqueue(Packet pkt) {
  if (byte_count() + pkt.size_bytes > limit_bytes_) return reject(pkt);
  q_.push_back(PacketSlab::local(), admit(pkt, sojourn_now()));
  return true;
}

PacketSlab::Slot FifoQueue::dequeue_slot() {
  if (q_.empty()) return PacketSlab::kNone;
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Slot s = q_.pop_front(slab);
  account_dequeue(slab[s]);
  return s;
}

}  // namespace cebinae
