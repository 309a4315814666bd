// Synthetic backbone-trace generator (substitution for the CAIDA traces of
// Fig. 13).
//
// Emits a time-ordered packet stream with the statistical properties that
// drive heavy-hitter detection accuracy on an ISP backbone link: Poisson
// flow arrivals, heavy-tailed (bounded-Pareto) per-flow rates, exponential
// flow lifetimes, and bimodal packet sizes. The arrival, rate and lifetime
// model is fixed (constants in trace_gen.cpp, and the rate cap below); a
// config sets only the length and the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace cebinae {

struct TracePacket {
  Time time;
  FlowId flow;
  std::uint32_t bytes = 0;
};

struct TraceConfig {
  Time duration = Seconds(5);
  std::uint64_t seed = 42;
};

struct TraceSummary {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t flows = 0;
};

class SyntheticTrace {
 public:
  // Cap on a flow's rate, so one flow can't exceed the link.
  static constexpr double kMaxFlowRateBps = 2e9;

  // A flow's CBR rate from its Pareto draw: the draw, capped at kMaxFlowRateBps.
  [[nodiscard]] static double flow_rate_bps(double pareto_draw);

  // Generates the full stream, sorted by timestamp.
  [[nodiscard]] static std::vector<TracePacket> generate(const TraceConfig& config);

  [[nodiscard]] static TraceSummary summarize(const std::vector<TracePacket>& trace);
};

}  // namespace cebinae
