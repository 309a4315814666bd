#include "queueing/queue_disc.hpp"

#include <cassert>

#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {

PacketSlab::Slot QueueDisc::dequeue_slot() {
  adapting_dequeue_ = true;
  std::optional<Packet> pkt = dequeue();
  adapting_dequeue_ = false;
  return pkt ? PacketSlab::local().alloc(*pkt, Time::zero()) : PacketSlab::kNone;
}

std::optional<Packet> QueueDisc::dequeue() {
  assert(!adapting_dequeue_ && "a QueueDisc must override dequeue_slot() or dequeue()");
  const PacketSlab::Slot s = dequeue_slot();
  if (s == PacketSlab::kNone) return std::nullopt;
  PacketSlab& slab = PacketSlab::local();
  std::optional<Packet> pkt = slab[s].pkt;
  slab.release(s);
  return pkt;
}

Time QueueDisc::sojourn_now() const {
  return sojourn_sched_ == nullptr ? Time::zero() : sojourn_sched_->now();
}

void QueueDisc::record_sojourn(Time enqueued) {
  sojourn_hist_->observe((sojourn_sched_->now() - enqueued).seconds());
}

}  // namespace cebinae
