// Port saturation detector (paper §4.1).
//
// The data plane maintains a monotonically increasing per-port transmit byte
// counter (the queue disc's stats().dequeued_bytes); the control plane
// samples it every recomputation interval without resetting it and compares
// the observed delta against (1 - δp) · capacity · interval.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace cebinae {

class PortSaturationDetector {
 public:
  PortSaturationDetector(std::uint64_t capacity_bps, double delta_port)
      : capacity_bps_(capacity_bps), delta_port_(delta_port) {}

  // Control-plane sampling: diff the counter's value `tx_bytes` against the
  // previous sample and report saturation over the elapsed interval.
  bool sample(std::uint64_t tx_bytes, Time interval);

  [[nodiscard]] double last_utilization() const { return last_utilization_; }

 private:
  std::uint64_t capacity_bps_;
  double delta_port_;
  std::uint64_t last_sample_ = 0;
  double last_utilization_ = 0.0;
};

}  // namespace cebinae
