#include "queueing/fq_codel.hpp"

#include <cassert>
#include <cmath>

namespace cebinae {

namespace {
// CoDel's control law: the next drop is interval/sqrt(count) after `t`.
Time control_law(Time t, std::uint32_t count) {
  return t + Time(static_cast<std::int64_t>(static_cast<double>(FqCoDel::kInterval.ns()) /
                                            std::sqrt(static_cast<double>(count))));
}
}  // namespace

void FqCoDel::drop_from_fattest() {
  FlowQueue* fattest = nullptr;
  for (auto& [flow, fq] : queues_) {
    if (!fattest || fq.bytes > fattest->bytes) fattest = &fq;
  }
  // Called only while byte_count() exceeds the limit, so some queue holds
  // bytes; an empty pick would spin enqueue_slot's loop forever.
  assert(fattest != nullptr && !fattest->q.empty());
  // RFC 8290 drops from the head of the fattest queue to penalize the
  // standing queue rather than the arriving packet.
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Slot victim = fattest->q.pop_front(slab);
  fattest->bytes -= slab[victim].size_bytes;
  drop(victim);
}

bool FqCoDel::enqueue_slot(PacketSlab::Slot s) {
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Entry& frame = slab[s];
  FlowQueue& fq = queues_[frame.flow];
  fq.q.push_back(slab, admit(s, sched_.now()));
  fq.bytes += frame.size_bytes;

  if (!fq.scheduled) {
    fq.deficit = kMtuBytes;
    new_flows_.push_back(&fq);
    fq.scheduled = true;
  }
  while (byte_count() > params_.limit_bytes) drop_from_fattest();
  return true;
}

PacketSlab::Slot FqCoDel::codel_pop(FlowQueue& fq, Time now, bool& ok_to_drop) {
  ok_to_drop = false;
  if (fq.q.empty()) {
    fq.first_above_time = Time::zero();
    return PacketSlab::kNone;
  }
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Slot s = fq.q.pop_front(slab);
  const PacketSlab::Entry& e = slab[s];
  fq.bytes -= e.size_bytes;

  if (now - e.stamp < kTarget || fq.bytes < kMtuBytes) {
    fq.first_above_time = Time::zero();
  } else if (fq.first_above_time == Time::zero()) {
    fq.first_above_time = now + kInterval;
  } else if (now >= fq.first_above_time) {
    ok_to_drop = true;
  }
  return s;
}

PacketSlab::Slot FqCoDel::codel_dequeue(FlowQueue& fq, Time now) {
  PacketSlab& slab = PacketSlab::local();
  bool ok_to_drop = false;
  PacketSlab::Slot s = codel_pop(fq, now, ok_to_drop);
  if (fq.dropping) {
    if (!ok_to_drop) {
      fq.dropping = false;
    } else {
      while (fq.dropping && s != PacketSlab::kNone && now >= fq.drop_next) {
        ++fq.count;
        if (mark_ce(slab[s])) {
          fq.drop_next = control_law(fq.drop_next, fq.count);
          break;  // marked packets are still delivered
        }
        drop(s);
        s = codel_pop(fq, now, ok_to_drop);
        if (!ok_to_drop) {
          fq.dropping = false;
        } else {
          fq.drop_next = control_law(fq.drop_next, fq.count);
        }
      }
    }
  } else if (ok_to_drop) {
    // Enter dropping state.
    if (!mark_ce(slab[s])) {
      drop(s);
      s = codel_pop(fq, now, ok_to_drop);
    }
    fq.dropping = true;
    // Start closer to the previous rate if we were recently dropping.
    if (fq.count > 2 && now - fq.drop_next < kInterval) {
      fq.count -= 2;
    } else {
      fq.count = 1;
    }
    fq.drop_next = control_law(now, fq.count);
  }
  return s;
}

PacketSlab::Slot FqCoDel::dequeue_slot() {
  PacketSlab& slab = PacketSlab::local();
  // Bounded by the number of scheduled queues; each iteration either
  // services, recycles, or retires one queue.
  while (!new_flows_.empty() || !old_flows_.empty()) {
    const bool from_new = !new_flows_.empty();
    std::deque<FlowQueue*>& lst = from_new ? new_flows_ : old_flows_;
    FlowQueue* fq = lst.front();

    if (fq->deficit <= 0) {
      fq->deficit += kMtuBytes;
      lst.pop_front();
      old_flows_.push_back(fq);
      continue;
    }

    const PacketSlab::Slot s = codel_dequeue(*fq, sched_.now());
    if (s == PacketSlab::kNone) {
      // Queue is empty: a new queue gets one pass through old before being
      // retired (RFC 8290 §4.2); an old empty queue is removed.
      lst.pop_front();
      if (from_new) {
        old_flows_.push_back(fq);
      } else {
        fq->scheduled = false;
      }
      continue;
    }

    fq->deficit -= slab[s].size_bytes;
    account_dequeue(slab[s]);
    return s;
  }
  return PacketSlab::kNone;
}

}  // namespace cebinae
