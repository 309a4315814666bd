// Model of the hardware packet generator found on programmable switches.
//
// Tofino's packet generator emits precisely timed packets; Cebinae uses it
// to trigger ROTATE events every dT (paper §4.3, "strict-real-time queue
// rotation"). In the simulator this is a precise periodic event source.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/scheduler.hpp"

namespace cebinae {

class PacketGenerator {
 public:
  PacketGenerator(Scheduler& sched, Time period, std::function<void()> on_fire)
      : period_(period), on_fire_(std::move(on_fire)), timer_(sched, [this] { fire(); }) {}

  PacketGenerator(const PacketGenerator&) = delete;
  PacketGenerator& operator=(const PacketGenerator&) = delete;

  // Begin firing, first at now + first_delay, then every `period`.
  void start(Time first_delay);
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] Time period() const { return period_; }

 private:
  void fire();

  Time period_;
  std::function<void()> on_fire_;
  Timer timer_;
  bool running_ = false;
  std::uint64_t fired_ = 0;
};

}  // namespace cebinae
