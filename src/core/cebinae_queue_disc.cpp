#include "core/cebinae_queue_disc.hpp"

namespace cebinae {

CebinaeQueueDisc::CebinaeQueueDisc(Scheduler& sched, std::uint64_t capacity_bps,
                                   std::uint64_t buffer_bytes, CebinaeParams params)
    : sched_(sched),
      capacity_bps_(capacity_bps),
      buffer_bytes_(buffer_bytes),
      params_(params),
      lbf_(params, capacity_bps),
      cache_(kCacheStages, kCacheSlots) {}

bool CebinaeQueueDisc::enqueue_slot(PacketSlab::Slot s) {
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Entry& frame = slab[s];
  // Shared physical buffer: the LBF's guarantees assume the whole buffer is
  // available to whichever queue needs it (paper §4.4).
  if (byte_count() + frame.size_bytes > buffer_bytes_) {
    ++buffer_dropped_packets_;
    return reject(s);
  }

  const FlowGroup group = is_top(frame.flow) ? FlowGroup::kTop : FlowGroup::kBottom;
  const LeakyBucketFilter::Queue queue = lbf_.admit(group, frame.size_bytes, sched_.now());

  switch (queue) {
    case LeakyBucketFilter::Queue::kDrop:
      ++lbf_dropped_packets_;
      return reject(s);
    case LeakyBucketFilter::Queue::kTail:
      ++delayed_packets_;
      break;
    case LeakyBucketFilter::Queue::kHead:
      break;
  }

  const int q = queue == LeakyBucketFilter::Queue::kHead ? lbf_.head_index()
                                                          : 1 - lbf_.head_index();
  q_[q].push_back(slab, admit(s, sojourn_now()));
  return true;
}

PacketSlab::Slot CebinaeQueueDisc::dequeue_slot() {
  const int head = lbf_.head_index();
  for (int q : {head, 1 - head}) {
    if (q_[q].empty()) continue;
    PacketSlab& slab = PacketSlab::local();
    const PacketSlab::Slot s = q_[q].pop_front(slab);
    const PacketSlab::Entry& frame = slab[s];

    // Egress pipeline: the heavy-hitter cache and the port's transmit
    // counter (stats().dequeued_bytes) see transmitted traffic only.
    cache_.add(frame.flow, frame.size_bytes);
    account_dequeue(frame);
    return s;
  }
  return PacketSlab::kNone;
}

void CebinaeQueueDisc::rotate() { lbf_.rotate(sched_.now()); }

}  // namespace cebinae
