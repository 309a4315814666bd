#include "tcp/cubic.hpp"

#include <cmath>

namespace cebinae {

void Cubic::on_slow_start_ack(const AckEvent& ev) {
  if (ev.round_start) {
    hystart_last_min_ = hystart_samples_ >= 3 ? hystart_curr_min_ : Time::max();
    hystart_curr_min_ = Time::max();
    hystart_samples_ = 0;
  }
  if (ev.rtt > Time::zero()) {
    hystart_curr_min_ = std::min(hystart_curr_min_, ev.rtt);
    ++hystart_samples_;
  }
  if (cwnd_ < 16ull * kMssBytes || hystart_last_min_ == Time::max() ||
      hystart_curr_min_ == Time::max() || hystart_samples_ < 3) {
    return;
  }
  // Linux's delay threshold: last_min/8, clamped to [4ms, 16ms].
  const Time eta = std::clamp(hystart_last_min_ / 8, Milliseconds(4), Milliseconds(16));
  if (hystart_curr_min_ >= hystart_last_min_ + eta) {
    ssthresh_ = cwnd_;  // leave slow start before the queue overflows
  }
}

void Cubic::congestion_avoidance(const AckEvent& ev) {
  const double cwnd_seg = static_cast<double>(cwnd_) / kMssBytes;
  if (ev.rtt > Time::zero()) min_rtt_ = ev.min_rtt;

  if (epoch_start_ == Time::zero()) {
    epoch_start_ = ev.now;
    ack_cnt_ = 0.0;
    if (cwnd_seg < w_max_) {
      k_ = std::cbrt((w_max_ - cwnd_seg) / kC);
      origin_point_ = w_max_;
    } else {
      k_ = 0.0;
      origin_point_ = cwnd_seg;
    }
    w_est_ = cwnd_seg;
  }

  ack_cnt_ += static_cast<double>(ev.acked_bytes) / kMssBytes;

  // Cubic window at one RTT in the future (so growth anticipates the curve).
  const double t = (ev.now - epoch_start_).seconds() + min_rtt_.seconds();
  const double target = origin_point_ + kC * std::pow(t - k_, 3.0);

  double cnt;  // ACKs (in segments) per segment of window growth
  if (target > cwnd_seg) {
    cnt = cwnd_seg / (target - cwnd_seg);
  } else {
    cnt = 100.0 * cwnd_seg;  // effectively hold the window
  }

  // TCP-friendly region: grow a Reno-equivalent estimate (with beta = 0.7,
  // one ACKed window adds 3(1-beta)/(1+beta) segments per RTT) and never run
  // slower than it.
  w_est_ += 3.0 * (1.0 - kBeta) / (1.0 + kBeta) *
            (static_cast<double>(ev.acked_bytes) / kMssBytes) / std::max(cwnd_seg, 1.0);
  if (w_est_ > cwnd_seg && cwnd_seg / (w_est_ - cwnd_seg) < cnt) {
    cnt = cwnd_seg / (w_est_ - cwnd_seg);
  }

  cnt = std::max(cnt, 0.01);
  const double increment = static_cast<double>(kMssBytes) / cnt *
                           (static_cast<double>(ev.acked_bytes) / kMssBytes);
  // Never grow faster than slow start would (Linux bounds the same way);
  // this tames jumbo cumulative ACKs after recovery.
  cwnd_ += std::min<std::uint64_t>(static_cast<std::uint64_t>(increment), ev.acked_bytes);
}

void Cubic::reduce(Time /*now*/) {
  const double cwnd_seg = static_cast<double>(cwnd_) / kMssBytes;
  // Fast convergence: release extra bandwidth when the window shrank since
  // the last loss event (another flow is ramping up).
  if (cwnd_seg < w_max_) {
    w_max_ = cwnd_seg * (2.0 - kBeta) / 2.0;
  } else {
    w_max_ = cwnd_seg;
  }
  epoch_start_ = Time::zero();
  ssthresh_ = std::max<std::uint64_t>(static_cast<std::uint64_t>(cwnd_ * kBeta), 2 * kMssBytes);
  cwnd_ = ssthresh_;
}

void Cubic::on_timeout_reset(Time /*now*/) {
  epoch_start_ = Time::zero();
  w_max_ = static_cast<double>(cwnd_) / kMssBytes;
}

}  // namespace cebinae
