#include "core/port_saturation.hpp"

namespace cebinae {

bool PortSaturationDetector::sample(std::uint64_t tx_bytes, Time interval) {
  const std::uint64_t delta = tx_bytes - last_sample_;
  last_sample_ = tx_bytes;

  const double capacity_bytes =
      static_cast<double>(capacity_bps_) / 8.0 * interval.seconds();
  last_utilization_ = capacity_bytes > 0 ? static_cast<double>(delta) / capacity_bytes : 0.0;
  return last_utilization_ >= 1.0 - delta_port_;
}

}  // namespace cebinae
