// Figure 1: goodput time series of two NewReno flows with RTTs 20.4 ms and
// 40 ms sharing one bottleneck, under FIFO and under Cebinae, along with
// Cebinae's port state (unsaturated / which flow is bottlenecked).
//
// The per-second series come from each job row's trace list
// (tput_Bps / ceb_saturated / top_flow). With --trials=N the table shows
// trial 0 and the steady-state ratio line aggregates across trials.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

// '-' unsaturated, '0'/'1' flow 0/1 is in the top (bottlenecked) set, 'B' both.
char state_char(const exp::JsonObject& row) {
  const std::vector<double>& saturated = row.arr("ceb_saturated");
  const std::vector<double>& top = row.arr("top_flow");
  if (saturated.empty() || saturated[0] == 0.0) return '-';
  const bool has0 = top.size() > 0 && top[0] != 0.0;
  const bool has1 = top.size() > 1 && top[1] != 0.0;
  return has0 && has1 ? 'B' : (has0 ? '0' : (has1 ? '1' : '-'));
}

double flow_mbps(const exp::JsonObject& row, std::size_t flow) {
  const std::vector<double>& tput = row.arr("tput_Bps");
  return flow < tput.size() ? exp::to_mbps(tput[flow]) : 0.0;
}

// Short-RTT over long-RTT goodput, averaged over the second half of a
// trial's trace.
double tail_ratio(const exp::JsonObject& trial) {
  const std::vector<exp::JsonObject>& trace = trial.list("trace");
  if (trace.empty()) return 0.0;
  double f0 = 0, f1 = 0;
  for (std::size_t i = trace.size() / 2; i < trace.size(); ++i) {
    f0 += flow_mbps(trace[i], 0);
    f1 += flow_mbps(trace[i], 1);
  }
  return f1 > 0.0 ? f0 / f1 : 0.0;
}

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  // 100 Mbps so NewReno's additive increase converges within the plotted
  // window (see EXPERIMENTS.md on timescale scaling).
  ScenarioConfig base;
  base.bottleneck_bps = 100'000'000;
  base.buffer_bytes = 850ull * kMtuBytes;
  base.duration = opts.scaled(Seconds(60), Seconds(30));
  base.flows = {FlowSpec{CcaType::kNewReno, MillisecondsF(20.4)},
                FlowSpec{CcaType::kNewReno, Milliseconds(40)}};

  std::vector<exp::ExperimentJob> jobs = exp::SweepGrid(base)
                                             .qdiscs({QdiscKind::kFifo, QdiscKind::kCebinae})
                                             .build();
  for (exp::ExperimentJob& job : jobs) job.trace_period = opts.trace_period();
  return jobs;
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  if (rows.size() < 2) return;
  const std::vector<exp::JsonObject>& fifo = rows[0].trials[0]->list("trace");
  const std::vector<exp::JsonObject>& ceb = rows[1].trials[0]->list("trace");
  if (fifo.empty() || ceb.empty()) return;

  std::printf("%4s  %14s %14s   %14s %14s  %s\n", "t[s]", "FIFO rtt20[Mb]",
              "FIFO rtt40[Mb]", "Ceb rtt20[Mb]", "Ceb rtt40[Mb]", "Ceb state");
  const std::size_t n = std::min(fifo.size(), ceb.size());
  for (std::size_t s = 0; s < n; ++s) {
    std::printf("%4.0f  %14.1f %14.1f   %14.1f %14.1f  %c\n", fifo[s].num("t_s"),
                flow_mbps(fifo[s], 0), flow_mbps(fifo[s], 1), flow_mbps(ceb[s], 0),
                flow_mbps(ceb[s], 1), state_char(ceb[s]));
  }
  std::printf("\nsteady-state goodput ratio (short/long RTT): FIFO %s, Cebinae %s\n",
              exp::pm(exp::over(rows[0], tail_ratio), 2).c_str(),
              exp::pm(exp::over(rows[1], tail_ratio), 2).c_str());
}

const exp::Registration registration{exp::ExperimentSpec{
    "fig01",
    "Figure 1: RTT unfairness time series (2x NewReno, 20.4/40 ms)",
    "2-flow RTT unfairness time series with Cebinae port state",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae
