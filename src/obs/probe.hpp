// Scheduler-driven telemetry probe.
//
// A Probe fires on the deterministic event scheduler every `period`,
// starting at now + period, driven by a PacketGenerator. Each tick builds one
// TraceRow stamped with the simulation time and runs the registered samplers
// over it in registration order, then pushes the row into the sink. Because
// ticks are ordinary scheduler events, sampling is exactly reproducible: the
// same seed and schedule yield the same rows regardless of host threads or
// wall clock.
//
// Probe ticks scheduled at time T run before same-timestamp packet events
// that were scheduled later (FIFO tie-break), so a tick at T observes the
// simulation state as of "just before T" — a half-open [T-period, T) sample
// window for windowed rates.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "control/packet_generator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"

namespace cebinae::obs {

class Probe {
 public:
  Probe(Scheduler& sched, Time period, TraceSink& sink);

  // Samplers run in registration order on every tick.
  void add_sampler(std::function<void(Time now, TraceRow& row)> fn) {
    samplers_.push_back(std::move(fn));
  }

  // Snapshot every registered metric of `reg` on each tick. The registry
  // must outlive the probe (it does: both are owned by the scenario's
  // Network / Scenario).
  void sample_registry(const MetricsRegistry& reg);

  // First tick at now + period, then every period.
  void start() { timer_.start(timer_.period()); }

 private:
  void tick();

  Scheduler& sched_;
  TraceSink& sink_;
  std::vector<std::function<void(Time, TraceRow&)>> samplers_;
  // Re-arms before tick() runs the samplers. The event order is the same as
  // re-arming after them only because samplers never schedule events.
  PacketGenerator timer_;
};

}  // namespace cebinae::obs
