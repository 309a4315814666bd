#include "tcp/bbr.hpp"

#include <algorithm>

namespace cebinae {

std::uint64_t Bbr::bdp_bytes(double gain) const {
  if (min_rtt_ == Time::max()) return 0;
  const double bdp = btl_bw_filter_.get() * min_rtt_.seconds();
  return static_cast<std::uint64_t>(gain * bdp);
}

void Bbr::update_model(const AckEvent& ev) {
  if (ev.round_start) ++round_count_;
  if (ev.delivery_rate_Bps > 0) {
    btl_bw_filter_.update(ev.delivery_rate_Bps, round_count_);
  }
  // Expiry must be judged before refreshing the filter, or the stale-min
  // signal that triggers PROBE_RTT would never be observed.
  min_rtt_expired_ = min_rtt_ != Time::max() && ev.now - min_rtt_stamp_ > kMinRttWindow;
  if (ev.rtt > Time::zero() && (ev.rtt <= min_rtt_ || min_rtt_expired_)) {
    min_rtt_ = ev.rtt;
    min_rtt_stamp_ = ev.now;
  }
}

void Bbr::enter_probe_bw(Time now) {
  mode_ = Mode::kProbeBw;
  // Start in a neutral phase (index 2) so flows do not synchronize their
  // probe spikes at the handoff from DRAIN.
  cycle_index_ = 2;
  cycle_stamp_ = now;
}

void Bbr::update_state(const AckEvent& ev) {
  switch (mode_) {
    case Mode::kStartup:
      if (ev.round_start) {
        // Pipe considered full when bandwidth stops growing 25% per round
        // for three consecutive rounds.
        const double bw = btl_bw_filter_.get();
        if (bw >= full_bw_ * 1.25) {
          full_bw_ = bw;
          full_bw_count_ = 0;
        } else if (bw > 0) {
          ++full_bw_count_;
        }
        if (full_bw_count_ >= 3) {
          filled_pipe_ = true;
          mode_ = Mode::kDrain;
        }
      }
      break;
    case Mode::kDrain:
      if (ev.bytes_in_flight <= bdp_bytes(1.0)) enter_probe_bw(ev.now);
      break;
    case Mode::kProbeBw:
      if (min_rtt_ != Time::max() && ev.now - cycle_stamp_ > min_rtt_) {
        cycle_index_ = (cycle_index_ + 1) % kGainCycleLen;
        cycle_stamp_ = ev.now;
      }
      break;
    case Mode::kProbeRtt:
      if (probe_rtt_done_stamp_ == Time::zero() &&
          ev.bytes_in_flight <= 4ull * kMssBytes) {
        probe_rtt_done_stamp_ = ev.now + kProbeRttDuration;
        probe_rtt_round_done_ = false;
      } else if (probe_rtt_done_stamp_ != Time::zero()) {
        if (ev.round_start) probe_rtt_round_done_ = true;
        if (probe_rtt_round_done_ && ev.now >= probe_rtt_done_stamp_) {
          min_rtt_stamp_ = ev.now;
          if (filled_pipe_) {
            enter_probe_bw(ev.now);
          } else {
            mode_ = Mode::kStartup;
          }
        }
      }
      break;
  }

  // Enter PROBE_RTT whenever the min-RTT estimate has gone stale.
  if (mode_ != Mode::kProbeRtt && min_rtt_expired_) {
    mode_ = Mode::kProbeRtt;
    probe_rtt_done_stamp_ = Time::zero();
  }
}

void Bbr::update_control(const AckEvent& ev) {
  switch (mode_) {
    case Mode::kStartup:
      pacing_gain_ = kHighGain;
      cwnd_gain_ = kHighGain;
      break;
    case Mode::kDrain:
      pacing_gain_ = kDrainGain;
      cwnd_gain_ = kHighGain;
      break;
    case Mode::kProbeBw:
      pacing_gain_ = kPacingGainCycle[cycle_index_];
      cwnd_gain_ = kCwndGain;
      break;
    case Mode::kProbeRtt:
      pacing_gain_ = 1.0;
      cwnd_gain_ = 1.0;
      break;
  }

  const double bw = btl_bw_filter_.get();
  if (bw > 0) pacing_rate_ = pacing_gain_ * bw;

  if (mode_ == Mode::kProbeRtt) {
    cwnd_ = 4ull * kMssBytes;
    return;
  }

  const std::uint64_t target = std::max<std::uint64_t>(bdp_bytes(cwnd_gain_), 4ull * kMssBytes);
  if (bw == 0 || min_rtt_ == Time::max()) {
    // No model yet: exponential growth like slow start.
    cwnd_ += std::min<std::uint64_t>(ev.acked_bytes, 2 * kMssBytes);
  } else if (cwnd_ < target) {
    // Grow toward the target at most one acked-byte batch at a time.
    cwnd_ = std::min(cwnd_ + ev.acked_bytes, target);
  } else {
    cwnd_ = target;
  }
}

void Bbr::on_ack(const AckEvent& ev) {
  update_model(ev);
  update_state(ev);
  update_control(ev);
}

void Bbr::on_loss(Time /*now*/, std::uint64_t /*bytes_in_flight*/) {
  // BBRv1 deliberately does not reduce its rate on packet loss; the model
  // (bw, min_rtt) fully determines the operating point.
}

void Bbr::on_rto(Time /*now*/) {
  // Conservation after a timeout; the next ACK restores the model-driven
  // window.
  cwnd_ = kMssBytes;
}

}  // namespace cebinae
