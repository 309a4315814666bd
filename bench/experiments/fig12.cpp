// Figure 12: parameter sensitivity. 16 NewReno flows vs 1 Cubic flow on
// 100 Mbps; the thresholds delta_p, delta_f, and tau sweep together from 1%
// to 100%. JFI and application goodput for Cebinae at each setting, with
// FIFO and FQ as flat references.
#include <cstdio>
#include <iterator>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

const std::vector<double> kThresholdsPct = {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0};

ScenarioConfig base_config(const exp::RunOptions& opts) {
  ScenarioConfig cfg;
  cfg.bottleneck_bps = 100'000'000;
  cfg.buffer_bytes = 850ull * kMtuBytes;
  cfg.duration = opts.scaled(Seconds(100), Seconds(25));
  cfg.flows = flows_of(CcaType::kNewReno, 16, Milliseconds(50));
  cfg.flows.push_back(FlowSpec{CcaType::kCubic, Milliseconds(50)});
  return cfg;
}

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  // 2 reference qdiscs followed by the 7-point Cebinae threshold axis.
  std::vector<exp::ExperimentJob> jobs = exp::SweepGrid(base_config(opts))
                                             .qdiscs({QdiscKind::kFifo, QdiscKind::kFqCoDel})
                                             .build();
  ScenarioConfig ceb = base_config(opts);
  ceb.qdisc = QdiscKind::kCebinae;
  std::vector<exp::ExperimentJob> sweep =
      exp::SweepGrid(ceb)
          .axis("thresholds_pct", kThresholdsPct,
                [](ScenarioConfig& cfg, double pct) {
                  cfg.cebinae.delta_port = pct / 100.0;
                  cfg.cebinae.delta_flow = pct / 100.0;
                  cfg.cebinae.tau = pct / 100.0;
                })
          .build();
  jobs.insert(jobs.end(), std::make_move_iterator(sweep.begin()),
              std::make_move_iterator(sweep.end()));
  return jobs;
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  if (rows.size() < 2 + kThresholdsPct.size()) return;
  std::printf("references: FIFO JFI %s goodput %s Mbps | FQ JFI %s goodput %s Mbps\n\n",
              exp::pm(exp::over(rows[0], "jfi"), 3).c_str(),
              exp::pm(exp::over(rows[0], exp::goodput_mbps), 1).c_str(),
              exp::pm(exp::over(rows[1], "jfi"), 3).c_str(),
              exp::pm(exp::over(rows[1], exp::goodput_mbps), 1).c_str());

  std::printf("%-14s %14s %18s\n", "thresholds[%]", "JFI", "Goodput[Mbps]");
  for (std::size_t i = 0; i < kThresholdsPct.size(); ++i) {
    const exp::ResultRow& r = rows[2 + i];
    std::printf("%-14.0f %14s %18s\n", kThresholdsPct[i],
                exp::pm(exp::over(r, "jfi"), 3).c_str(),
                exp::pm(exp::over(r, exp::goodput_mbps), 1).c_str());
  }
}

const exp::Registration registration{exp::ExperimentSpec{
    "fig12",
    "Figure 12: threshold sensitivity (16 NewReno + 1 Cubic, 100 Mbps)",
    "delta_p/delta_f/tau sweep 1-100% vs FIFO and FQ references",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae
