// Multi-bottleneck demo: Cebinae's per-link taxation composes into global
// max-min fairness (paper §3.2, Definition 2).
//
// Topology: a 3-link 'parking lot'. Two end-to-end flows cross all links;
// local flows load each link differently, so each link is a different
// bottleneck for someone. The example prints measured goodputs against the
// water-filling ideal computed by metrics/maxmin.
#include <cstdio>

#include "metrics/jfi.hpp"
#include "runner/scenario.hpp"

using namespace cebinae;

int main() {
  std::printf("Parking-lot topology: 3 x 50 Mbps links\n");
  std::printf("flows: 2 end-to-end NewReno; 4 local Cubic on link 0; 2 local NewReno on link 2\n\n");

  for (QdiscKind qdisc : {QdiscKind::kFifo, QdiscKind::kCebinae}) {
    ScenarioConfig cfg;
    cfg.chain_links = 3;
    cfg.bottleneck_bps = 50'000'000;
    cfg.buffer_bytes = 420ull * kMtuBytes;
    cfg.qdisc = qdisc;
    cfg.duration = Seconds(30);

    cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(60));  // end-to-end
    for (FlowSpec f : flows_of(CcaType::kCubic, 4, Milliseconds(30))) {
      f.enter = 0;
      f.exit = 1;
      cfg.flows.push_back(f);
    }
    for (FlowSpec f : flows_of(CcaType::kNewReno, 2, Milliseconds(30))) {
      f.enter = 2;
      f.exit = 3;
      cfg.flows.push_back(f);
    }

    Scenario scenario(cfg);
    const std::vector<double> ideal = ideal_goodputs_Bps(scenario.config());
    const ScenarioResult r = scenario.run();

    std::printf("--- %s ---\n", std::string(to_string(qdisc)).c_str());
    std::printf("  %-18s %10s %10s\n", "flow", "ideal", "measured");
    const char* labels[] = {"NewReno e2e",  "NewReno e2e",  "Cubic link-0", "Cubic link-0",
                            "Cubic link-0", "Cubic link-0", "NewReno link-2", "NewReno link-2"};
    for (std::size_t i = 0; i < r.goodput_Bps.size(); ++i) {
      std::printf("  %-18s %7.2f Mb %7.2f Mb\n", labels[i], ideal[i] * 8 / 1e6,
                  r.goodput_Bps[i] * 8 / 1e6);
    }
    std::printf("  normalized JFI vs ideal: %.3f\n\n",
                normalized_jain_index(r.goodput_Bps, ideal));
  }
  return 0;
}
