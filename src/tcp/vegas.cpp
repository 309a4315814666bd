#include "tcp/vegas.hpp"

#include <algorithm>

namespace cebinae {

void Vegas::on_ack(const AckEvent& ev) {
  if (ev.in_recovery) return;  // no adjustments while repairing losses
  if (ev.rtt > Time::zero()) {
    base_rtt_ = std::min(base_rtt_, ev.rtt);
    round_min_rtt_ = std::min(round_min_rtt_, ev.rtt);
    ++round_samples_;
  }

  if (ev.round_start) {
    round_update();
    round_min_rtt_ = Time::max();
    round_samples_ = 0;
    grow_this_round_ = !grow_this_round_;
  }

  if (in_slow_start() && grow_this_round_) {
    // Exponential growth gated to every other round so the delay measurement
    // from the non-growing round is trustworthy.
    cwnd_ += std::min<std::uint64_t>(ev.acked_bytes, 2 * kMssBytes);
  }
}

void Vegas::round_update() {
  if (round_samples_ < 3 || base_rtt_ == Time::max()) return;

  const double rtt = round_min_rtt_.seconds();
  const double base = base_rtt_.seconds();
  if (rtt <= 0 || base <= 0) return;

  const double cwnd_seg = static_cast<double>(cwnd_) / kMssBytes;
  // Segments sitting in queues: cwnd * (rtt - base)/rtt.
  const double diff = cwnd_seg * (rtt - base) / rtt;

  if (in_slow_start()) {
    if (diff > kGamma) {
      // Leave slow start: clamp to the target window plus one segment.
      const double target = cwnd_seg * base / rtt;
      cwnd_ = static_cast<std::uint64_t>(std::min(cwnd_seg, target + 1.0) * kMssBytes);
      ssthresh_ = std::min<std::uint64_t>(
          ssthresh_, cwnd_ > 2 * kMssBytes ? cwnd_ - kMssBytes : 2 * kMssBytes);
    }
    return;
  }

  if (diff > kBeta) {
    cwnd_ -= kMssBytes;
    ssthresh_ = std::min<std::uint64_t>(
        ssthresh_, cwnd_ > 2 * kMssBytes ? cwnd_ - kMssBytes : 2 * kMssBytes);
  } else if (diff < kAlpha) {
    cwnd_ += kMssBytes;
  }
  cwnd_ = std::max<std::uint64_t>(cwnd_, 2 * kMssBytes);
}

void Vegas::on_loss(Time /*now*/, std::uint64_t /*bytes_in_flight*/) {
  // Vegas falls back to Reno behavior on packet loss.
  ssthresh_ = std::max<std::uint64_t>(cwnd_ / 2, 2 * kMssBytes);
  cwnd_ = ssthresh_;
}

void Vegas::on_rto(Time /*now*/) {
  ssthresh_ = std::max<std::uint64_t>(cwnd_ / 2, 2 * kMssBytes);
  cwnd_ = kMssBytes;
}

}  // namespace cebinae
