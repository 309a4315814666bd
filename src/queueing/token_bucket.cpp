#include "queueing/token_bucket.hpp"

#include <algorithm>

namespace cebinae {

void TokenBucket::refill(Time now) {
  if (now > last_refill_) {
    tokens_ = std::min(burst_bytes_, tokens_ + rate_Bps_ * (now - last_refill_).seconds());
    last_refill_ = now;
  }
}

bool TokenBucket::conforms(std::uint32_t bytes, Time now) {
  refill(now);
  if (tokens_ >= static_cast<double>(bytes)) {
    tokens_ -= bytes;
    return true;
  }
  return false;
}

double TokenBucket::tokens(Time now) const {
  TokenBucket copy = *this;
  copy.refill(now);
  return copy.tokens_;
}

StrawmanQueueDisc::StrawmanQueueDisc(Scheduler& sched, std::uint64_t capacity_bps,
                                     std::uint64_t buffer_bytes, StrawmanParams params)
    : sched_(sched), tick_(sched, [this] { on_tick(); }), buffer_bytes_(buffer_bytes),
      params_(params), saturation_(capacity_bps, params.delta_port) {
  tick_.arm_after(params_.interval);
}

void StrawmanQueueDisc::on_tick() {
  if (saturation_.sample(stats().dequeued_bytes, params_.interval)) {
    // Freeze every flow at the maximal observed per-flow rate: the
    // strawman's "token-bucket rate limit on all flows of the maximal
    // size". Re-armed every interval while saturation persists so the limit
    // tracks the current maximum (it never redistributes, though: every
    // flow's own rate is below the max by definition).
    std::uint64_t max_bytes = 0;
    for (const auto& [flow, b] : interval_bytes_) max_bytes = std::max(max_bytes, b);
    const double rate = static_cast<double>(max_bytes) / params_.interval.seconds();
    if (rate > 0) {
      frozen_rate_Bps_ = rate;
      for (auto& [flow, bucket] : buckets_) bucket.set_rate(rate);
    }
  } else if (limiting()) {
    // Aggregate demand dropped below capacity: release all limits.
    buckets_.clear();
    frozen_rate_Bps_ = 0.0;
  }

  interval_bytes_.clear();
  tick_.arm_after(params_.interval);
}

bool StrawmanQueueDisc::enqueue_slot(PacketSlab::Slot s) {
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Entry& frame = slab[s];
  if (limiting()) {
    auto it = buckets_.find(frame.flow);
    if (it == buckets_.end()) {
      it = buckets_
               .emplace(frame.flow,
                        TokenBucket(frozen_rate_Bps_,
                                    params_.burst_factor * frozen_rate_Bps_ *
                                        params_.interval.seconds()))
               .first;
    }
    if (!it->second.conforms(frame.size_bytes, sched_.now())) {
      ++limited_drops_;
      return reject(s);
    }
  }

  if (byte_count() + frame.size_bytes > buffer_bytes_) return reject(s);
  q_.push_back(slab, admit(s, sojourn_now()));
  return true;
}

PacketSlab::Slot StrawmanQueueDisc::dequeue_slot() {
  if (q_.empty()) return PacketSlab::kNone;
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Slot s = q_.pop_front(slab);
  const PacketSlab::Entry& frame = slab[s];
  interval_bytes_[frame.flow] += frame.size_bytes;
  account_dequeue(frame);
  return s;
}

}  // namespace cebinae
