#include "tcp/new_reno.hpp"

namespace cebinae {

void NewReno::congestion_avoidance(const AckEvent& ev) {
  (void)ev;
  // ~1 MSS per RTT: each ACK adds mss^2 / cwnd bytes.
  cwnd_ += std::max<std::uint64_t>(1, static_cast<std::uint64_t>(kMssBytes) * kMssBytes / cwnd_);
}

void NewReno::reduce(Time /*now*/) {
  ssthresh_ = std::max<std::uint64_t>(cwnd_ / 2, 2 * kMssBytes);
  cwnd_ = ssthresh_;
}

}  // namespace cebinae
