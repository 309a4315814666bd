// TCP Vegas (Brakmo & Peterson 1994): delay-based congestion avoidance.
// The paper uses Vegas as the canonical victim CCA — it backs off on queueing
// delay long before loss-based competitors do, so FIFO starves it.
#pragma once

#include <limits>

#include "net/packet.hpp"
#include "tcp/congestion_control.hpp"

namespace cebinae {

class Vegas final : public CongestionControl {
 public:
  [[nodiscard]] std::string_view name() const override { return "vegas"; }
  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] bool in_slow_start() const override { return cwnd_ < ssthresh_; }
  [[nodiscard]] bool uses_delivery_rate() const override { return false; }

  void on_ack(const AckEvent& ev) override;
  void on_loss(Time now, std::uint64_t bytes_in_flight) override;
  void on_rto(Time now) override;

  // Exposed for unit tests.
  [[nodiscard]] Time base_rtt() const { return base_rtt_; }

 private:
  // Vegas thresholds in queued segments.
  static constexpr double kAlpha = 2.0;
  static constexpr double kBeta = 4.0;
  static constexpr double kGamma = 1.0;

  void round_update();

  std::uint64_t cwnd_ = 10ull * kMssBytes;
  std::uint64_t ssthresh_ = std::numeric_limits<std::uint64_t>::max();

  Time base_rtt_ = Time::max();   // lifetime minimum RTT (propagation estimate)
  Time round_min_rtt_ = Time::max();
  std::uint32_t round_samples_ = 0;
  bool grow_this_round_ = true;   // slow start doubles every *other* RTT
};

}  // namespace cebinae
