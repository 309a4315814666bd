// Shared base for window-based (loss reactive) congestion control: slow
// start and the common RTO response. Subclasses supply the
// congestion-avoidance increase rule and the multiplicative-decrease rule.
#pragma once

#include <algorithm>
#include <limits>

#include "net/packet.hpp"
#include "tcp/congestion_control.hpp"

namespace cebinae {

class WindowCc : public CongestionControl {
 public:
  [[nodiscard]] std::uint64_t cwnd_bytes() const final { return cwnd_; }
  [[nodiscard]] bool in_slow_start() const final { return cwnd_ < ssthresh_; }

  void on_ack(const AckEvent& ev) final {
    // No window growth while repairing losses (Linux: cong_avoid is not
    // called in CA_Recovery/CA_Loss).
    if (ev.in_recovery) return;
    if (in_slow_start()) {
      on_slow_start_ack(ev);  // may exit slow start (e.g., HyStart)
      if (in_slow_start()) {
        cwnd_ += std::min<std::uint64_t>(ev.acked_bytes, 2 * kMssBytes);
        clamp();
        return;
      }
    }
    congestion_avoidance(ev);
    clamp();
  }

  void on_loss(Time now, std::uint64_t /*bytes_in_flight*/) override {
    reduce(now);
    clamp();
  }

  void on_rto(Time now) override {
    ssthresh_ = std::max<std::uint64_t>(cwnd_ / 2, 2 * kMssBytes);
    cwnd_ = kMssBytes;
    on_timeout_reset(now);
  }

 protected:
  // Additive-increase step while cwnd >= ssthresh.
  virtual void congestion_avoidance(const AckEvent& ev) = 0;

  // Hook invoked on every slow-start ACK before the exponential increase;
  // implementations may lower ssthresh_ to terminate slow start early.
  virtual void on_slow_start_ack(const AckEvent& /*ev*/) {}

  // Multiplicative decrease on loss; must update cwnd_ and ssthresh_.
  virtual void reduce(Time now) = 0;

  // Extra state reset after an RTO (e.g., Cubic clears its epoch).
  virtual void on_timeout_reset(Time /*now*/) {}

  void clamp() { cwnd_ = std::max<std::uint64_t>(cwnd_, 2 * kMssBytes); }

  std::uint64_t cwnd_ = 10ull * kMssBytes;  // initial window: 10 segments
  std::uint64_t ssthresh_ = std::numeric_limits<std::uint64_t>::max();
};

}  // namespace cebinae
