// Per-flow configuration used by ScenarioConfig.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hpp"
#include "tcp/cc_factory.hpp"

namespace cebinae {

struct FlowSpec {
  CcaType cca = CcaType::kNewReno;
  Time rtt = Milliseconds(50);  // two-way propagation target
  Time start = Time::zero();
  std::uint64_t bytes = std::numeric_limits<std::uint64_t>::max();
  int enter = 0;   // entry switch index on the chain
  int exit = -1;   // exit switch index; negative = last switch (exit_switch)

  // Constants, not settings: every flow runs to the end of the scenario and
  // ECN is not modelled. They are lower-case static members rather than
  // kNames because the benchmark's traced run (perfbench/traced.cpp) reads
  // each one as `spec.<name>`.
  static constexpr Time stop = Time::max();
  static constexpr bool ecn = false;
};

// The switch where `f` leaves a chain of `chain_links` links.
[[nodiscard]] inline int exit_switch(const FlowSpec& f, int chain_links) {
  return f.exit < 0 ? chain_links : f.exit;
}

// Convenience: n identical flows.
[[nodiscard]] inline std::vector<FlowSpec> flows_of(CcaType cca, int n, Time rtt) {
  std::vector<FlowSpec> v(static_cast<std::size_t>(n));
  for (auto& f : v) {
    f.cca = cca;
    f.rtt = rtt;
  }
  return v;
}

}  // namespace cebinae
