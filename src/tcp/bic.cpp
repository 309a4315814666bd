#include "tcp/bic.hpp"

#include <algorithm>
#include <cmath>

namespace cebinae {

void Bic::congestion_avoidance(const AckEvent& ev) {
  const double cwnd_seg = static_cast<double>(cwnd_) / kMssBytes;
  double inc;  // segments per RTT

  if (cwnd_seg < kLowWindow) {
    inc = 1.0;  // Reno region for small windows
  } else if (cwnd_seg < w_max_) {
    // Binary search increase toward the midpoint with w_max_.
    const double dist = (w_max_ - cwnd_seg) / 2.0;
    inc = std::clamp(dist, kSmin, kSmax);
  } else {
    // Max probing beyond w_max_: slow-start-like ramp, capped at Smax.
    const double dist = cwnd_seg - w_max_;
    inc = std::clamp(dist, 1.0, kSmax);
  }

  // Spread `inc` segments over one window's worth of ACKs.
  increment_accumulator_ +=
      inc * (static_cast<double>(ev.acked_bytes) / kMssBytes) / std::max(cwnd_seg, 1.0);
  if (increment_accumulator_ >= 1.0) {
    const double whole = std::floor(increment_accumulator_);
    cwnd_ += static_cast<std::uint64_t>(whole * kMssBytes);
    increment_accumulator_ -= whole;
  }
}

void Bic::reduce(Time /*now*/) {
  const double cwnd_seg = static_cast<double>(cwnd_) / kMssBytes;
  // Fast convergence, as in Cubic.
  if (cwnd_seg < w_max_) {
    w_max_ = cwnd_seg * (1.0 + kBeta) / 2.0;
  } else {
    w_max_ = cwnd_seg;
  }
  ssthresh_ = std::max<std::uint64_t>(static_cast<std::uint64_t>(cwnd_ * kBeta), 2 * kMssBytes);
  cwnd_ = ssthresh_;
}

}  // namespace cebinae
