// TCP Cubic (Ha, Rhee, Xu 2008) — the default algorithm on Linux and
// Windows Server, and the paper's representative aggressive loss-based CCA.
#pragma once

#include "tcp/window_cc.hpp"

namespace cebinae {

class Cubic final : public WindowCc {
 public:
  [[nodiscard]] std::string_view name() const override { return "cubic"; }

  // Exposed for unit tests of the window curve.
  [[nodiscard]] double w_max_segments() const { return w_max_; }
  [[nodiscard]] double k_seconds() const { return k_; }

 private:
  void congestion_avoidance(const AckEvent& ev) override;
  void on_slow_start_ack(const AckEvent& ev) override;  // HyStart (delay)
  void reduce(Time now) override;
  void on_timeout_reset(Time now) override;

  static constexpr double kC = 0.4;      // cubic scaling constant
  static constexpr double kBeta = 0.7;   // multiplicative decrease factor

  double w_max_ = 0.0;          // window (segments) at last reduction
  Time epoch_start_ = Time::zero();
  double k_ = 0.0;              // time (s) to regrow to w_max_
  double origin_point_ = 0.0;   // segments
  double w_est_ = 0.0;          // TCP-friendly region estimate (segments)
  Time min_rtt_ = Time::zero();
  double ack_cnt_ = 0.0;

  // HyStart (delay increase) state: exit slow start when the round's
  // minimum RTT rises noticeably above the previous round's, i.e. before
  // the overshoot burst instead of after it.
  Time hystart_curr_min_ = Time::max();
  Time hystart_last_min_ = Time::max();
  std::uint32_t hystart_samples_ = 0;
};

}  // namespace cebinae
