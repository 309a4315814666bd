// Cebinae's configurable parameters (the paper's Table 1) plus the derived
// sizing rules from §4.4. vdT and L are fixed properties of the switch, not
// settings: vdT is the clock-precision round of Fig. 5 and L the
// control-plane deadline of Fig. 6.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

namespace cebinae {

struct CebinaeParams {
  double delta_port = 0.01;  // δp: port saturation threshold
  double delta_flow = 0.01;  // δf: flow bottleneck threshold
  double tau = 0.01;         // τ: tax rate

  std::uint32_t p_rounds = 1;      // P: dT periods per recomputation
  Time dt = Nanoseconds(1 << 27);  // dT: physical bucket duration (2^n)

  static constexpr Time kLDeadline = Nanoseconds(1 << 16);  // L: control-plane deadline
  static constexpr Time kVdt = Nanoseconds(1 << 10);  // vdT: virtual bucket duration (2^m, m<n)

  // Round a duration up to the next power-of-two nanoseconds (Tofino-style
  // bucket durations enable the vdT masking trick in Fig. 5).
  [[nodiscard]] static Time next_pow2(Time t) {
    std::int64_t v = 1;
    while (v < t.ns()) v <<= 1;
    return Time(v);
  }

  // §4.4/Eq. 2 sizing: dT >= buffer/BW + vdT + L so that even a full-buffer
  // burst admitted late in a round drains before the queue is reused.
  // Also derives P to cover the network's maximum RTT.
  [[nodiscard]] static CebinaeParams for_link(std::uint64_t rate_bps,
                                              std::uint64_t buffer_bytes, Time max_rtt) {
    CebinaeParams p;
    const double drain_s =
        static_cast<double>(buffer_bytes) * 8.0 / static_cast<double>(rate_bps);
    const Time lower = SecondsF(drain_s) + kVdt + kLDeadline;
    p.dt = next_pow2(lower);
    p.p_rounds = static_cast<std::uint32_t>(std::max<std::int64_t>(
        1, (max_rtt.ns() + p.dt.ns() - 1) / p.dt.ns()));
    return p;
  }
};

}  // namespace cebinae
