#include "queueing/codel.hpp"

#include <cmath>
#include <utility>

#include "obs/metrics.hpp"

namespace cebinae {

Time CodelController::control_law(Time t) const {
  return t + Time(static_cast<std::int64_t>(static_cast<double>(params_.interval.ns()) /
                                            std::sqrt(static_cast<double>(count_))));
}

CodelController::DodequeResult CodelController::dodeque(std::deque<TimestampedPacket>& q,
                                                        std::uint64_t& bytes, Time now) {
  DodequeResult r;
  if (q.empty()) {
    first_above_time_ = Time::zero();
    return r;
  }
  TimestampedPacket tp = std::move(q.front());
  q.pop_front();
  bytes -= tp.pkt.size_bytes;

  const Time sojourn = now - tp.enqueued;
  r.sojourn = sojourn;
  if (sojourn < params_.target || bytes < kMtuBytes) {
    first_above_time_ = Time::zero();
  } else {
    if (first_above_time_ == Time::zero()) {
      first_above_time_ = now + params_.interval;
    } else if (now >= first_above_time_) {
      r.ok_to_drop = true;
    }
  }
  r.pkt = std::move(tp.pkt);
  return r;
}

std::optional<Packet> CodelController::dequeue(std::deque<TimestampedPacket>& q,
                                               std::uint64_t& bytes, Time now,
                                               QueueDiscStats& stats,
                                               obs::Histogram* sojourn) {
  auto drop_or_mark = [&](Packet& pkt) -> bool {
    // Returns true when the packet was ECN-marked (and should be forwarded)
    // rather than dropped.
    if (params_.use_ecn && pkt.ect) {
      pkt.ce = true;
      ++stats.ecn_marked_packets;
      return true;
    }
    ++stats.dropped_packets;
    stats.dropped_bytes += pkt.size_bytes;
    return false;
  };

  DodequeResult r = dodeque(q, bytes, now);
  if (dropping_) {
    if (!r.ok_to_drop) {
      dropping_ = false;
    } else {
      while (dropping_ && r.pkt && now >= drop_next_) {
        ++count_;
        if (drop_or_mark(*r.pkt)) {
          drop_next_ = control_law(drop_next_);
          break;  // marked packets are still delivered
        }
        r = dodeque(q, bytes, now);
        if (!r.ok_to_drop) {
          dropping_ = false;
        } else {
          drop_next_ = control_law(drop_next_);
        }
      }
    }
  } else if (r.ok_to_drop) {
    // Enter dropping state.
    const bool marked = r.pkt && drop_or_mark(*r.pkt);
    if (!marked) r = dodeque(q, bytes, now);
    dropping_ = true;
    // Start closer to the previous rate if we were recently dropping.
    if (count_ > 2 && now - drop_next_ < params_.interval) {
      count_ -= 2;
    } else {
      count_ = 1;
    }
    drop_next_ = control_law(now);
  }
  if (sojourn != nullptr && r.pkt) sojourn->observe(r.sojourn.seconds());
  return r.pkt;
}

}  // namespace cebinae
