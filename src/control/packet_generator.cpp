#include "control/packet_generator.hpp"

namespace cebinae {

void PacketGenerator::start(Time first_delay) {
  if (running_) return;
  running_ = true;
  timer_.arm_after(first_delay);
}

void PacketGenerator::stop() {
  if (!running_) return;
  running_ = false;
  timer_.cancel();
}

void PacketGenerator::fire() {
  if (!running_) return;
  ++fired_;
  // Arm the next tick before running the callback so a slow callback
  // cannot skew the period (the hardware generator never drifts).
  timer_.arm_after(period_);
  on_fire_();
}

}  // namespace cebinae
