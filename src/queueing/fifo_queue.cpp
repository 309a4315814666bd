#include "queueing/fifo_queue.hpp"

namespace cebinae {

bool FifoQueue::enqueue_slot(PacketSlab::Slot s) {
  PacketSlab& slab = PacketSlab::local();
  if (byte_count() + slab[s].size_bytes > limit_bytes_) return reject(s);
  q_.push_back(slab, admit(s, sojourn_now()));
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
