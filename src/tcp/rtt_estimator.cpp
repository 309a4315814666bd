#include "tcp/rtt_estimator.hpp"

#include <algorithm>
#include <cstdlib>

namespace cebinae {

void RttEstimator::on_sample(Time rtt) {
  if (rtt <= Time::zero()) return;
  min_rtt_ = std::min(min_rtt_, rtt);
  if (!has_sample_) {
    // RFC 6298 (2.2): SRTT <- R, RTTVAR <- R/2.
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    has_sample_ = true;
  } else {
    // RFC 6298 (2.3) with alpha = 1/8, beta = 1/4.
    const Time err = Time(std::abs((rtt - srtt_).ns()));
    rttvar_ = Time((3 * rttvar_.ns() + err.ns()) / 4);
    srtt_ = Time((7 * srtt_.ns() + rtt.ns()) / 8);
  }
  rto_ = srtt_ + std::max(Time(1), 4 * rttvar_);
  clamp_rto();
}

void RttEstimator::backoff() {
  rto_ = rto_ * 2;
  clamp_rto();
}

void RttEstimator::clamp_rto() {
  rto_ = std::clamp(rto_, kMinRto, kMaxRto);
}

}  // namespace cebinae
