#include "queueing/fq_codel.hpp"

#include <algorithm>
#include <cassert>

namespace cebinae {

FqCoDel::FlowQueue& FqCoDel::queue_for(const Packet& pkt) {
  const std::uint64_t key = FlowIdHash{}(pkt.flow);
  auto it = queues_.find(key);
  if (it == queues_.end()) {
    it = queues_.emplace(key, std::make_unique<FlowQueue>(params_.codel)).first;
  }
  return *it->second;
}

void FqCoDel::drop_from_fattest() {
  FlowQueue* fattest = nullptr;
  for (auto& [key, fq] : queues_) {
    if (!fattest || fq->bytes > fattest->bytes) fattest = fq.get();
  }
  if (!fattest || fattest->q.empty()) return;
  // RFC 8290 drops from the head of the fattest queue to penalize the
  // standing queue rather than the arriving packet.
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Slot victim = fattest->q.pop_front(slab);
  const std::uint32_t size = slab[victim].pkt.size_bytes;
  slab.release(victim);
  fattest->bytes -= size;
  bytes_ -= size;
  --packets_;
  ++stats_.dropped_packets;
  stats_.dropped_bytes += size;
}

bool FqCoDel::enqueue(Packet pkt) {
  FlowQueue& fq = queue_for(pkt);
  const std::uint32_t size = pkt.size_bytes;
  PacketSlab& slab = PacketSlab::local();
  fq.q.push_back(slab, slab.alloc(pkt, sched_.now()));
  fq.bytes += size;
  bytes_ += size;
  ++packets_;
  ++stats_.enqueued_packets;

  if (!fq.in_new && !fq.in_old) {
    fq.deficit = kMtuBytes;
    new_flows_.push_back(&fq);
    fq.in_new = true;
  }
  while (bytes_ > params_.limit_bytes) drop_from_fattest();
  return true;
}

PacketSlab::Slot FqCoDel::dequeue_slot() {
  PacketSlab& slab = PacketSlab::local();
  // Bounded by the number of scheduled queues; each iteration either
  // services, recycles, or retires one queue.
  while (!new_flows_.empty() || !old_flows_.empty()) {
    const bool from_new = !new_flows_.empty();
    std::list<FlowQueue*>& lst = from_new ? new_flows_ : old_flows_;
    FlowQueue* fq = lst.front();

    if (fq->deficit <= 0) {
      fq->deficit += kMtuBytes;
      lst.pop_front();
      fq->in_new = false;
      fq->in_old = true;
      old_flows_.push_back(fq);
      continue;
    }

    const std::uint64_t bytes_before = fq->bytes;
    const std::size_t pkts_before = fq->q.size();
    const PacketSlab::Slot s =
        fq->codel.dequeue(fq->q, slab, fq->bytes, sched_.now(), stats_, sojourn_hist());
    // CoDel may have consumed several packets (drops plus the returned one).
    bytes_ -= bytes_before - fq->bytes;
    packets_ -= pkts_before - fq->q.size();

    if (s == PacketSlab::kNone) {
      // Queue is empty: a new queue gets one pass through old before being
      // retired (RFC 8290 §4.2); an old empty queue is removed.
      lst.pop_front();
      if (from_new) {
        fq->in_new = false;
        fq->in_old = true;
        old_flows_.push_back(fq);
      } else {
        fq->in_old = false;
      }
      continue;
    }

    const std::uint32_t size = slab[s].pkt.size_bytes;
    fq->deficit -= size;
    ++stats_.dequeued_packets;
    stats_.dequeued_bytes += size;
    return s;
  }
  return PacketSlab::kNone;
}

}  // namespace cebinae
