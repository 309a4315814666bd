#include "workload/trace_gen.hpp"

#include <algorithm>
#include <unordered_set>

namespace cebinae {

namespace {
constexpr double kFlowArrivalsPerSec = 7000;  // ~420k flows/min, as in Fig. 13
constexpr double kMeanFlowLifetimeS = 0.5;
constexpr double kParetoShape = 1.2;  // flow-rate heavy tail
constexpr double kMinFlowRateBps = 20e3;
}  // namespace

double SyntheticTrace::flow_rate_bps(double pareto_draw) {
  return std::min(pareto_draw, kMaxFlowRateBps);
}

std::vector<TracePacket> SyntheticTrace::generate(const TraceConfig& config) {
  RandomStream rng(config.seed);
  std::vector<TracePacket> trace;

  const double duration_s = config.duration.seconds();
  // Rough pre-reservation: arrivals x average packets per flow (guessed
  // small; vector growth handles the tail).
  trace.reserve(static_cast<std::size_t>(kFlowArrivalsPerSec * duration_s * 8));

  double arrival_s = 0.0;
  std::uint32_t next_flow = 1;

  while (true) {
    arrival_s += rng.exponential(1.0 / kFlowArrivalsPerSec);
    if (arrival_s >= duration_s) break;

    // One flow: CBR at a heavy-tailed rate for an exponential lifetime.
    const double rate_bps = flow_rate_bps(rng.pareto(kMinFlowRateBps, kParetoShape));
    const double lifetime_s =
        std::min(rng.exponential(kMeanFlowLifetimeS), duration_s - arrival_s);

    FlowId flow;
    flow.src = next_flow;
    flow.dst = static_cast<NodeId>(rng.uniform_int(1, 1 << 24));
    flow.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    flow.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 1023));
    ++next_flow;

    // Bimodal packet sizes: mostly MTU for bulk flows, small for the rest.
    const std::uint32_t pkt_bytes =
        rate_bps > 1e6 ? kMtuBytes : static_cast<std::uint32_t>(rng.uniform_int(64, 600));

    const double pkt_interval_s = static_cast<double>(pkt_bytes) * 8.0 / rate_bps;
    double t = arrival_s;
    // Cap the per-flow packet count so one pathological draw cannot blow up
    // the trace size; the cap is far above any realistic interval content.
    const std::size_t max_pkts = 2'000'000;
    std::size_t count = 0;
    while (t < arrival_s + lifetime_s && count < max_pkts) {
      trace.push_back(TracePacket{SecondsF(t), flow, pkt_bytes});
      t += pkt_interval_s;
      ++count;
    }
  }

  std::sort(trace.begin(), trace.end(),
            [](const TracePacket& a, const TracePacket& b) { return a.time < b.time; });
  return trace;
}

TraceSummary SyntheticTrace::summarize(const std::vector<TracePacket>& trace) {
  TraceSummary s;
  std::unordered_set<FlowId, FlowIdHash> flows;
  for (const TracePacket& p : trace) {
    ++s.packets;
    s.bytes += p.bytes;
    flows.insert(p.flow);
  }
  s.flows = flows.size();
  return s;
}

}  // namespace cebinae
