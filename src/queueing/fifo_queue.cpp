#include "queueing/fifo_queue.hpp"

#include <utility>

namespace cebinae {

bool FifoQueue::enqueue(Packet pkt) {
  if (bytes_ + pkt.size_bytes > limit_bytes_) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += pkt.size_bytes;
    return false;
  }
  bytes_ += pkt.size_bytes;
  ++stats_.enqueued_packets;
  q_.push_back(TimestampedPacket{std::move(pkt), sojourn_now()});
  return true;
}

std::optional<Packet> FifoQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  TimestampedPacket tp = std::move(q_.front());
  q_.pop_front();
  bytes_ -= tp.pkt.size_bytes;
  ++stats_.dequeued_packets;
  stats_.dequeued_bytes += tp.pkt.size_bytes;
  record_sojourn(tp.enqueued);
  return std::move(tp.pkt);
}

}  // namespace cebinae
