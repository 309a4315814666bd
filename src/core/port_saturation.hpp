// Port saturation detector (paper §4.1).
//
// The data plane maintains a monotonically increasing per-port transmit byte
// counter; the control plane samples it every recomputation interval without
// resetting it and compares the observed delta against
// (1 - δp) · capacity · interval. The simulator is single-threaded, so a
// sample reads the live counter: nothing can write it mid-read.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace cebinae {

class PortSaturationDetector {
 public:
  PortSaturationDetector(std::uint64_t capacity_bps, double delta_port)
      : capacity_bps_(capacity_bps), delta_port_(delta_port) {}

  // Data-plane hot path: account transmitted bytes.
  void on_transmit(std::uint64_t bytes) { tx_bytes_ += bytes; }

  // Control-plane sampling: diff the counter against the previous sample and
  // report saturation over the elapsed interval.
  bool sample(Time interval);

  [[nodiscard]] bool saturated() const { return saturated_; }
  [[nodiscard]] double last_utilization() const { return last_utilization_; }
  [[nodiscard]] std::uint64_t tx_bytes() const { return tx_bytes_; }

 private:
  std::uint64_t capacity_bps_;
  double delta_port_;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t last_sample_ = 0;
  double last_utilization_ = 0.0;
  bool saturated_ = false;
};

}  // namespace cebinae
