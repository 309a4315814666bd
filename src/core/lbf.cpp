#include "core/lbf.hpp"

#include <algorithm>
#include <cassert>

namespace cebinae {

LeakyBucketFilter::LeakyBucketFilter(const CebinaeParams& params, std::uint64_t capacity_bps)
    : params_(params),
      capacity_Bps_(static_cast<double>(capacity_bps) / 8.0),
      dt_s_(params.dt.seconds()),
      vdt_s_(params.vdt.seconds()),
      vdt_mask_(~(params.vdt.ns() - 1)),
      rounds_per_dt_(params.dt.ns() / params.vdt.ns()) {
  assert((params.dt.ns() & (params.dt.ns() - 1)) == 0 && "dT must be a power of two");
  assert((params.vdt.ns() & (params.vdt.ns() - 1)) == 0 && "vdT must be a power of two");
  assert(params.vdt < params.dt);
  // Unsaturated phase: both queues pass traffic at full capacity.
  for (auto& q : rate_) q[0] = q[1] = capacity_Bps_;
}

void LeakyBucketFilter::advance_virtual_round(Time now) {
  if (now >= round_time_ + params_.vdt) {
    round_time_ = Time(now.ns() & vdt_mask_);
    relative_round_ = (round_time_ - base_round_time_) / params_.vdt;
  }
}

double LeakyBucketFilter::entitled_bytes(double rate_head_Bps, double rate_tail_Bps) const {
  const double rel = static_cast<double>(std::max<std::int64_t>(relative_round_, 0));
  if (relative_round_ < rounds_per_dt_) {
    return rate_head_Bps * rel * vdt_s_;
  }
  if (relative_round_ < 2 * rounds_per_dt_) {
    return rate_head_Bps * dt_s_ +
           (rel - static_cast<double>(rounds_per_dt_)) * rate_tail_Bps * vdt_s_;
  }
  // Should never happen with timely rotations; entitle the full horizon.
  return rate_head_Bps * dt_s_ + rate_tail_Bps * dt_s_;
}

LeakyBucketFilter::Queue LeakyBucketFilter::admit(FlowGroup group, std::uint32_t size, Time now) {
  advance_virtual_round(now);
  const int tail = 1 - head_;

  // Aggregate counter integrates against full capacity on both queues; it
  // both implements the unsaturated-phase filter and feeds the atomic
  // phase-change bootstrap.
  const double total_entitled = entitled_bytes(capacity_Bps_, capacity_Bps_);
  total_bytes_ = std::max(total_bytes_, total_entitled) + size;

  double past_head;
  double past_tail;

  if (!saturated_) {
    past_head = total_bytes_ - capacity_Bps_ * dt_s_;
    past_tail = past_head - capacity_Bps_ * dt_s_;
  } else {
    const int g = static_cast<int>(group);
    if (!group_valid_[g]) {
      // First packet of the group after the unsaturated->saturated phase
      // change: bytes[f] = total_bytes * (rate[f] / capacity), where
      // total_bytes is the aggregate counter captured atomically at the
      // transition (paper §4.3).
      bytes_[g] = bootstrap_total_ * bootstrap_share_[g];
      group_valid_[g] = true;
    }
    const double rate_head = rate_[head_][g];
    const double rate_tail = rate_[tail][g];
    const double entitled = entitled_bytes(rate_head, rate_tail);
    bytes_[g] = std::max(bytes_[g], entitled) + size;
    past_head = bytes_[g] - rate_head * dt_s_;
    past_tail = past_head - rate_tail * dt_s_;
  }

  if (past_head <= 0) return Queue::kHead;
  if (past_tail <= 0) return Queue::kTail;
  // The dropped packet must not consume allocation.
  if (saturated_) bytes_[static_cast<int>(group)] -= size;
  total_bytes_ -= size;
  return Queue::kDrop;
}

void LeakyBucketFilter::rotate(Time now) {
  // Drain the just-ended round's allocation (pkt.last_rate in Fig. 5).
  for (int g = 0; g < 2; ++g) {
    bytes_[g] = std::max(bytes_[g] - rate_[head_][g] * dt_s_, 0.0);
  }
  total_bytes_ = std::max(total_bytes_ - capacity_Bps_ * dt_s_, 0.0);

  base_round_time_ += params_.dt;
  // Re-anchor if the generator started late relative to our origin.
  if (base_round_time_ + params_.dt < now) {
    base_round_time_ = Time(now.ns() & ~(params_.dt.ns() - 1));
  }
  advance_virtual_round(now);
  relative_round_ = (round_time_ - base_round_time_) / params_.vdt;

  head_ = 1 - head_;
  ++rotations_;
}

void LeakyBucketFilter::set_future_rates(double top_Bps, double bottom_Bps) {
  const int tail = 1 - head_;
  rate_[tail][static_cast<int>(FlowGroup::kTop)] = top_Bps;
  rate_[tail][static_cast<int>(FlowGroup::kBottom)] = bottom_Bps;
}

void LeakyBucketFilter::enter_saturated(double top_Bps, double bottom_Bps) {
  saturated_ = true;
  for (auto& q : rate_) {
    q[static_cast<int>(FlowGroup::kTop)] = top_Bps;
    q[static_cast<int>(FlowGroup::kBottom)] = bottom_Bps;
  }
  group_valid_[0] = group_valid_[1] = false;
  bootstrap_total_ = total_bytes_;
  bootstrap_share_[static_cast<int>(FlowGroup::kTop)] = top_Bps / capacity_Bps_;
  bootstrap_share_[static_cast<int>(FlowGroup::kBottom)] = bottom_Bps / capacity_Bps_;
}

void LeakyBucketFilter::leave_saturated() {
  saturated_ = false;
  for (auto& q : rate_) q[0] = q[1] = capacity_Bps_;
}

}  // namespace cebinae
