// Figure 7: per-flow goodput for 16 TCP Vegas flows (0-15) competing with
// one NewReno flow (16) over a 100 Mbps bottleneck, FIFO vs Cebinae.
// The paper's headline: FIFO lets NewReno take ~80% of the link
// (JFI ~0.093); Cebinae redistributes it (JFI ~0.98).
#include <cstdio>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  ScenarioConfig cfg;
  cfg.bottleneck_bps = 100'000'000;
  cfg.buffer_bytes = 850ull * kMtuBytes;
  cfg.duration = opts.scaled(Seconds(100), Seconds(30));
  cfg.flows = flows_of(CcaType::kVegas, 16, Milliseconds(100));
  cfg.flows.push_back(FlowSpec{CcaType::kNewReno, Milliseconds(100)});
  return exp::SweepGrid(cfg)
      .qdiscs({QdiscKind::kFifo, QdiscKind::kCebinae})
      .build();
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  if (rows.size() < 2) return;
  const exp::ResultRow& fifo = rows[0];
  const exp::ResultRow& ceb = rows[1];
  const std::vector<double> fifo_flows = exp::mean_array(fifo.trials, "goodput_Bps");
  const std::vector<double> ceb_flows = exp::mean_array(ceb.trials, "goodput_Bps");

  std::printf("%-10s %18s %18s\n", "Flow", "FIFO [Mbps]", "Cebinae [Mbps]");
  for (std::size_t i = 0; i < fifo_flows.size() && i < ceb_flows.size(); ++i) {
    std::printf("%-10s %18.2f %18.2f\n",
                (i < 16 ? ("Vegas-" + std::to_string(i)) : std::string("NewReno-16")).c_str(),
                exp::to_mbps(fifo_flows[i]), exp::to_mbps(ceb_flows[i]));
  }
  std::printf("\nJFI:     FIFO %s   Cebinae %s\n",
              exp::pm(exp::over(fifo, "jfi"), 3).c_str(),
              exp::pm(exp::over(ceb, "jfi"), 3).c_str());
  std::printf("Goodput: FIFO %s Mbps   Cebinae %s Mbps\n",
              exp::pm(exp::over(fifo, exp::goodput_mbps), 1).c_str(),
              exp::pm(exp::over(ceb, exp::goodput_mbps), 1).c_str());
}

const exp::Registration registration{exp::ExperimentSpec{
    "fig07",
    "Figure 7: 16 Vegas vs 1 NewReno over 100 Mbps",
    "per-flow goodput, 16 Vegas + 1 NewReno, FIFO vs Cebinae",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae
