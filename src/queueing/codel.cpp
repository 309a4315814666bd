#include "queueing/codel.hpp"

#include <cmath>

#include "obs/metrics.hpp"

namespace cebinae {

Time CodelController::control_law(Time t) const {
  return t + Time(static_cast<std::int64_t>(static_cast<double>(params_.interval.ns()) /
                                            std::sqrt(static_cast<double>(count_))));
}

CodelController::DodequeResult CodelController::dodeque(SlotFifo& q, PacketSlab& slab,
                                                        std::uint64_t& bytes, Time now) {
  DodequeResult r;
  if (q.empty()) {
    first_above_time_ = Time::zero();
    return r;
  }
  r.slot = q.pop_front(slab);
  const PacketSlab::Entry& e = slab[r.slot];
  bytes -= e.pkt.size_bytes;

  r.sojourn = now - e.stamp;
  if (r.sojourn < params_.target || bytes < kMtuBytes) {
    first_above_time_ = Time::zero();
  } else {
    if (first_above_time_ == Time::zero()) {
      first_above_time_ = now + params_.interval;
    } else if (now >= first_above_time_) {
      r.ok_to_drop = true;
    }
  }
  return r;
}

PacketSlab::Slot CodelController::dequeue(SlotFifo& q, PacketSlab& slab, std::uint64_t& bytes,
                                          Time now, QueueDiscStats& stats,
                                          obs::Histogram* sojourn) {
  auto drop_or_mark = [&](PacketSlab::Slot s) -> bool {
    // Returns true when the packet was ECN-marked (and should be forwarded)
    // rather than dropped; a dropped packet's slot is released.
    Packet& pkt = slab[s].pkt;
    if (pkt.ect) {
      pkt.ce = true;
      ++stats.ecn_marked_packets;
      return true;
    }
    ++stats.dropped_packets;
    stats.dropped_bytes += pkt.size_bytes;
    slab.release(s);
    return false;
  };

  DodequeResult r = dodeque(q, slab, bytes, now);
  if (dropping_) {
    if (!r.ok_to_drop) {
      dropping_ = false;
    } else {
      while (dropping_ && r.slot != PacketSlab::kNone && now >= drop_next_) {
        ++count_;
        if (drop_or_mark(r.slot)) {
          drop_next_ = control_law(drop_next_);
          break;  // marked packets are still delivered
        }
        r = dodeque(q, slab, bytes, now);
        if (!r.ok_to_drop) {
          dropping_ = false;
        } else {
          drop_next_ = control_law(drop_next_);
        }
      }
    }
  } else if (r.ok_to_drop) {
    // Enter dropping state.
    const bool marked = r.slot != PacketSlab::kNone && drop_or_mark(r.slot);
    if (!marked) r = dodeque(q, slab, bytes, now);
    dropping_ = true;
    // Start closer to the previous rate if we were recently dropping.
    if (count_ > 2 && now - drop_next_ < params_.interval) {
      count_ -= 2;
    } else {
      count_ = 1;
    }
    drop_next_ = control_law(now);
  }
  if (sojourn != nullptr && r.slot != PacketSlab::kNone) sojourn->observe(r.sojourn.seconds());
  return r.slot;
}

}  // namespace cebinae
