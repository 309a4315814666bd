// RTT estimation and retransmission timeout per RFC 6298.
#pragma once

#include "sim/time.hpp"

namespace cebinae {

class RttEstimator {
 public:
  static constexpr Time kInitialRto = Seconds(1);
  static constexpr Time kMinRto = Milliseconds(200);  // Linux-style floor
  static constexpr Time kMaxRto = Seconds(60);

  void on_sample(Time rtt);

  // Exponential backoff after a retransmission timeout (Karn's algorithm).
  void backoff();

  [[nodiscard]] Time rto() const { return rto_; }
  [[nodiscard]] Time srtt() const { return srtt_; }
  [[nodiscard]] Time rttvar() const { return rttvar_; }
  [[nodiscard]] Time min_rtt() const { return min_rtt_; }
  [[nodiscard]] bool has_sample() const { return has_sample_; }

 private:
  void clamp_rto();

  Time srtt_ = Time::zero();
  Time rttvar_ = Time::zero();
  Time min_rtt_ = Time::max();
  Time rto_ = kInitialRto;
  bool has_sample_ = false;
};

}  // namespace cebinae
