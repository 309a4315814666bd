// Figure 10: per-second JFI time series. 32 Vegas flows reach a stable
// state; a NewReno flow joins at ~5 s and a Cubic flow at ~25 s. Without
// in-network help the system slides into persistent unfairness; Cebinae
// pushes it back toward fair.
//
// Each qdisc runs traced; the JFI series is the trace list's "jfi" scalar
// (computed over flows active for a full sample window). With --trials=N
// the per-second table shows trial 0 and the final-quarter summary
// aggregates across trials — the per-trial Cebinae tail list at the
// bottom is the seed-sensitivity readout (see EXPERIMENTS.md).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

double tail_quarter_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = v.size() * 3 / 4; i < v.size(); ++i) {
    sum += v[i];
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  ScenarioConfig base;
  base.bottleneck_bps = 100'000'000;
  base.buffer_bytes = 850ull * kMtuBytes;
  base.duration = opts.scaled(Seconds(50), Seconds(40));
  base.flows = flows_of(CcaType::kVegas, 32, Milliseconds(50));
  FlowSpec reno{CcaType::kNewReno, Milliseconds(50)};
  reno.start = Seconds(5);
  base.flows.push_back(reno);
  FlowSpec cubic{CcaType::kCubic, Milliseconds(50)};
  cubic.start = Seconds(25);
  base.flows.push_back(cubic);

  std::vector<exp::ExperimentJob> jobs =
      exp::SweepGrid(base)
          .qdiscs({QdiscKind::kFifo, QdiscKind::kFqCoDel, QdiscKind::kCebinae})
          .trials(opts.trials_or(1))
          .build();
  for (exp::ExperimentJob& job : jobs) job.trace_period = opts.trace_period();
  return jobs;
}

// One trial's final-quarter mean of its per-second JFI series.
double tail_jfi(const exp::JsonObject& trial) {
  return tail_quarter_mean(exp::series_of(trial.list("trace"), "jfi"));
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  if (rows.size() < 3) return;
  const exp::ResultRow& fifo = rows[0];
  const exp::ResultRow& fq = rows[1];
  const exp::ResultRow& ceb = rows[2];

  // Per-second table from each qdisc's first trial.
  const std::vector<exp::JsonObject>& fifo_trace = fifo.trials[0]->list("trace");
  const std::vector<double> f = exp::series_of(fifo_trace, "jfi");
  const std::vector<double> q = exp::series_of(fq.trials[0]->list("trace"), "jfi");
  const std::vector<double> c = exp::series_of(ceb.trials[0]->list("trace"), "jfi");
  if (f.empty() || q.empty() || c.empty()) return;

  std::printf("%5s %10s %10s %10s\n", "t[s]", "FIFO", "FQ", "Cebinae");
  const std::size_t n = std::min(f.size(), std::min(q.size(), c.size()));
  for (std::size_t s = 0; s < n; ++s) {
    std::printf("%5.0f %10.3f %10.3f %10.3f\n", fifo_trace[s].num("t_s"), f[s], q[s], c[s]);
  }
  std::printf("\nfinal-quarter mean JFI: FIFO %s  FQ %s  Cebinae %s\n",
              exp::pm(exp::over(fifo, tail_jfi), 3).c_str(),
              exp::pm(exp::over(fq, tail_jfi), 3).c_str(),
              exp::pm(exp::over(ceb, tail_jfi), 3).c_str());

  // Seed sensitivity: where does each Cebinae trial end up after the Cubic
  // join? A tight cluster means the recovery is systematic; a wide spread
  // means it depends on join phasing.
  if (ceb.trials.size() > 1) {
    std::printf("\nper-trial Cebinae tail JFI:");
    for (const exp::JsonObject* trial : ceb.trials) {
      std::printf(" %.3f", tail_jfi(*trial));
    }
    std::printf("\n");
  }
}

const exp::Registration registration{exp::ExperimentSpec{
    "fig10",
    "Figure 10: JFI time series (32 Vegas; NewReno joins @5s, Cubic @25s)",
    "per-second JFI under late NewReno/Cubic joins, FIFO/FQ/Cebinae",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae
