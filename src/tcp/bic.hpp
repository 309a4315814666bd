// TCP BIC (Xu, Harfoush, Rhee 2004): binary-increase congestion control,
// Cubic's predecessor; appears in the paper's Table 2 and Fig. 11 workloads.
#pragma once

#include "tcp/window_cc.hpp"

namespace cebinae {

class Bic final : public WindowCc {
 public:
  [[nodiscard]] std::string_view name() const override { return "bic"; }

  [[nodiscard]] double w_max_segments() const { return w_max_; }

 private:
  void congestion_avoidance(const AckEvent& ev) override;
  void reduce(Time now) override;

  static constexpr double kBeta = 0.8;      // multiplicative decrease
  static constexpr double kSmax = 16.0;     // max increment (segments/RTT)
  static constexpr double kSmin = 0.01;     // min increment (segments/RTT)
  static constexpr double kLowWindow = 14.0;  // below this, act like Reno

  double w_max_ = 0.0;  // segments
  double increment_accumulator_ = 0.0;
};

}  // namespace cebinae
