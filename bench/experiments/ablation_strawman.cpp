// Ablation (paper §3.2): why Cebinae taxes instead of freezing.
//
// The strawman fairness scheme detects saturation and rate-limits all flows
// at the maximal observed per-flow rate with token buckets. Against an
// entrenched aggressor that holds its share (BBRv1 at a sub-BDP buffer, the
// modern stand-in for the paper's hypothetical 6x-aggressive variant), the
// paper argues the strawman can stop the aggressor growing further but
// cannot return its excess, while Cebinae's tax ratchets it down. Here the
// strawman redistributes as much as Cebinae (EXPERIMENTS.md, Ablations).
#include <cmath>
#include <cstdio>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"
#include "metrics/jfi.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  ScenarioConfig cfg;
  cfg.bottleneck_bps = 100'000'000;
  cfg.buffer_bytes = 250ull * kMtuBytes;  // sub-BDP: BBR holds its share
  cfg.duration = opts.scaled(Seconds(100), Seconds(40));

  // One incumbent BBR flow grabs the link alone; 4 NewReno flows join at
  // t=5s into the entrenched allocation.
  cfg.flows.push_back(FlowSpec{CcaType::kBbr, Milliseconds(40)});
  for (FlowSpec f : flows_of(CcaType::kNewReno, 4, Milliseconds(40))) {
    f.start = Seconds(5);
    cfg.flows.push_back(f);
  }
  return exp::SweepGrid(cfg)
      .qdiscs({QdiscKind::kFifo, QdiscKind::kStrawman, QdiscKind::kCebinae})
      .trials(opts.trials_or(1))
      .build();
}

// Each trial is measured over its converged tail (final half) rather than
// the whole run: flow 0 is the incumbent, the others the joiners.
double incumbent_mbps(const exp::JsonObject& trial) {
  const std::vector<double>& tail = trial.arr("tail_goodput_Bps");
  return tail.empty() ? std::nan("") : exp::to_mbps(tail[0]);
}

double joiner_avg_mbps(const exp::JsonObject& trial) {
  const std::vector<double>& tail = trial.arr("tail_goodput_Bps");
  double joiners = 0;
  for (std::size_t i = 1; i < tail.size(); ++i) joiners += tail[i];
  return exp::to_mbps(joiners / static_cast<double>(tail.size() - 1));
}

double tail_jfi(const exp::JsonObject& trial) {
  return jain_index(trial.arr("tail_goodput_Bps"));
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  std::printf("1 incumbent BBR + 4 late NewReno joiners, 100 Mbps, tail-half averages\n\n");
  std::printf("%-10s %18s %18s %12s\n", "scheme", "incumbent[Mbps]", "joiner avg[Mbps]",
              "JFI");
  for (const exp::ResultRow& r : rows) {
    std::printf("%-10s %18s %18s %12s\n",
                std::string(to_string(r.job->config.qdisc)).c_str(),
                exp::pm(exp::over(r, incumbent_mbps), 2).c_str(),
                exp::pm(exp::over(r, joiner_avg_mbps), 2).c_str(),
                exp::pm(exp::over(r, tail_jfi), 3).c_str());
  }
}

const exp::Registration registration{exp::ExperimentSpec{
    "ablation_strawman",
    "Ablation: strawman freeze-at-max vs Cebinae tax (paper 3.2)",
    "entrenched BBR vs late NewReno joiners under FIFO/Strawman/Cebinae",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae
