// Figure 11: 'Parking Lot' multi-bottleneck topology. 8 NewReno flows
// (0-7) traverse all three 100 Mbps links, contending with 2 Bic (8-9) on
// link 0, 8 Vegas (10-17) on link 1, and 4 Cubic (18-21) on link 2.
// Reports per-flow goodput against the ideal max-min allocation and the
// normalized JFI the paper uses (FIFO ~0.85 -> Cebinae ~0.98).
#include <cstdio>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"
#include "metrics/jfi.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

ScenarioConfig make_config(const exp::RunOptions& opts) {
  ScenarioConfig cfg;
  cfg.chain_links = 3;
  cfg.bottleneck_bps = 100'000'000;
  cfg.buffer_bytes = 850ull * kMtuBytes;
  cfg.duration = opts.scaled(Seconds(100), Seconds(30));

  // 8 NewReno end-to-end (larger RTT: longer path).
  for (const FlowSpec& f : flows_of(CcaType::kNewReno, 8, Milliseconds(80))) {
    cfg.flows.push_back(f);
  }
  auto local = [&](CcaType cca, int n, int link) {
    for (FlowSpec f : flows_of(cca, n, Milliseconds(40))) {
      f.enter = link;
      f.exit = link + 1;
      cfg.flows.push_back(f);
    }
  };
  local(CcaType::kBic, 2, 0);
  local(CcaType::kVegas, 8, 1);
  local(CcaType::kCubic, 4, 2);
  return cfg;
}

const char* flow_label(std::size_t i) {
  if (i < 8) return "NewReno(e2e)";
  if (i < 10) return "Bic(l0)";
  if (i < 18) return "Vegas(l1)";
  return "Cubic(l2)";
}

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  return exp::SweepGrid(make_config(opts))
      .qdiscs({QdiscKind::kFifo, QdiscKind::kCebinae})
      .trials(opts.trials_or(1))
      .build();
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  if (rows.size() < 2) return;
  const exp::ResultRow& fifo = rows[0];
  const exp::ResultRow& ceb = rows[1];
  const std::vector<double> ideal = ideal_goodputs_Bps(fifo.job->config);
  const std::vector<double> fifo_flows = exp::mean_array(fifo.trials, "goodput_Bps");
  const std::vector<double> ceb_flows = exp::mean_array(ceb.trials, "goodput_Bps");

  std::printf("%4s %-14s %12s %12s %12s\n", "Flow", "Type", "Ideal[Mbps]", "FIFO[Mbps]",
              "Cebinae[Mbps]");
  for (std::size_t i = 0; i < ideal.size() && i < fifo_flows.size() && i < ceb_flows.size();
       ++i) {
    std::printf("%4zu %-14s %12.2f %12.2f %12.2f\n", i, flow_label(i),
                exp::to_mbps(ideal[i]), exp::to_mbps(fifo_flows[i]),
                exp::to_mbps(ceb_flows[i]));
  }
  // The ideal depends on the topology and flows only, not on the qdisc.
  auto norm_jfi = [&ideal](const exp::JsonObject& trial) {
    return normalized_jain_index(trial.arr("goodput_Bps"), ideal);
  };
  std::printf("\nnormalized JFI (distance to max-min ideal): FIFO %s -> Cebinae %s\n",
              exp::pm(exp::over(fifo, norm_jfi), 3).c_str(),
              exp::pm(exp::over(ceb, norm_jfi), 3).c_str());
}

const exp::Registration registration{exp::ExperimentSpec{
    "fig11",
    "Figure 11: Parking Lot (3x100 Mbps): 8 NewReno e2e vs local Bic/Vegas/Cubic",
    "3-link parking lot vs ideal max-min allocation, FIFO vs Cebinae",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae
