#include "obs/probe.hpp"

#include <cassert>

namespace cebinae::obs {

Probe::Probe(Scheduler& sched, Time period, TraceSink& sink)
    : sched_(sched), sink_(sink), timer_(sched, period, [this] { tick(); }) {
  assert(period > Time::zero() && "probe period must be positive");
}

void Probe::sample_registry(const MetricsRegistry& reg) {
  add_sampler([&reg](Time, TraceRow& row) { reg.sample_into(row); });
}

void Probe::tick() {
  const Time now = sched_.now();
  TraceRow row(now.seconds());
  for (const auto& sampler : samplers_) sampler(now, row);
  sink_.push(std::move(row));
}

}  // namespace cebinae::obs
