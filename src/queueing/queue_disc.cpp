#include "queueing/queue_disc.hpp"

#include <cassert>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {

bool QueueDisc::enqueue_slot(PacketSlab::Slot s) {
  assert(!adapting_ && "a QueueDisc must override enqueue_slot() or enqueue()");
  PacketSlab& slab = PacketSlab::local();
  Packet pkt = slab.packet(s);
  slab.release(s);
  adapting_ = true;
  const bool admitted = enqueue(std::move(pkt));
  adapting_ = false;
  return admitted;
}

PacketSlab::Slot QueueDisc::dequeue_slot() {
  assert(!adapting_ && "a QueueDisc must override dequeue_slot() or dequeue()");
  adapting_ = true;
  std::optional<Packet> pkt = dequeue();
  adapting_ = false;
  return pkt ? PacketSlab::local().alloc(*pkt, Time::zero()) : PacketSlab::kNone;
}

bool QueueDisc::enqueue(Packet pkt) {
  assert(!adapting_ && "a QueueDisc must override enqueue_slot() or enqueue()");
  adapting_ = true;
  const bool admitted = enqueue_slot(PacketSlab::local().alloc(pkt, Time::zero()));
  adapting_ = false;
  return admitted;
}

std::optional<Packet> QueueDisc::dequeue() {
  assert(!adapting_ && "a QueueDisc must override dequeue_slot() or dequeue()");
  adapting_ = true;
  const PacketSlab::Slot s = dequeue_slot();
  adapting_ = false;
  if (s == PacketSlab::kNone) return std::nullopt;
  PacketSlab& slab = PacketSlab::local();
  std::optional<Packet> pkt = slab.packet(s);
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
