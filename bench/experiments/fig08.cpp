// Figure 8: per-flow goodput CDFs.
//   (a) 128 NewReno vs 2 BBR over 1 Gbps — Cebinae prevents the BBR flows
//       from claiming an outsized share.
//   (b) 128 NewReno (64 ms RTT) vs 4 Vegas (100 ms RTT) over 1 Gbps —
//       Cebinae mitigates Vegas starvation.
//
// With --trials=N the CDFs pool the per-flow goodputs of every trial, and
// the minority-share summary lines aggregate per trial (mean ± stddev).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

// Flows past this index are the minority CCA (BBR or Vegas) in both mixes.
constexpr std::size_t kMajorityFlows = 128;

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  ScenarioConfig common;
  common.bottleneck_bps = 1'000'000'000;
  common.duration = opts.scaled(Seconds(100), Seconds(12));
  common.flows = {FlowSpec{}};  // placeholder, replaced per mix
  return exp::SweepGrid(common)
      .variants(
          "mix",
          {{"reno128_bbr2",
            [](ScenarioConfig& cfg) {
              // (a) 128 NewReno + 2 BBR, equal 100 ms RTTs, 8350 MTU
              // (~1 BDP) buffer (Table 2's row for this mix).
              cfg.buffer_bytes = 8350ull * kMtuBytes;
              cfg.flows = flows_of(CcaType::kNewReno, 128, Milliseconds(100));
              cfg.flows.push_back(FlowSpec{CcaType::kBbr, Milliseconds(100)});
              cfg.flows.push_back(FlowSpec{CcaType::kBbr, Milliseconds(100)});
            }},
           {"reno128_vegas4",
            [](ScenarioConfig& cfg) {
              // (b) 128 NewReno @64 ms + 4 Vegas @100 ms.
              cfg.buffer_bytes = 8500ull * kMtuBytes;
              cfg.flows = flows_of(CcaType::kNewReno, 128, Milliseconds(64));
              for (int i = 0; i < 4; ++i) {
                cfg.flows.push_back(FlowSpec{CcaType::kVegas, Milliseconds(100)});
              }
            }}})
      .qdiscs({QdiscKind::kFifo, QdiscKind::kCebinae})
      .trials(opts.trials_or(1))
      .build();
}

// The minority flows' summed goodput in one trial.
double minority_Bps(const exp::JsonObject& trial) {
  const std::vector<double>& g = trial.arr("goodput_Bps");
  double minority = 0.0;
  for (std::size_t i = kMajorityFlows; i < g.size(); ++i) minority += g[i];
  return minority;
}

double minority_share_pct(const exp::JsonObject& trial) {
  return 100.0 * minority_Bps(trial) / trial.num("total_goodput_Bps");
}

double minority_mean_mbps(const exp::JsonObject& trial) {
  const std::size_t flows = trial.arr("goodput_Bps").size();
  const double n = static_cast<double>(flows > kMajorityFlows ? flows - kMajorityFlows : 0);
  return exp::to_mbps(minority_Bps(trial) / n);
}

// Per-flow goodputs of every trial, pooled into one sample set.
std::vector<double> pooled_goodputs(const exp::ResultRow& row) {
  std::vector<double> out;
  for (const exp::JsonObject* trial : row.trials) {
    const std::vector<double>& g = trial->arr("goodput_Bps");
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

void print_cdf(const char* label, std::vector<double> fifo, std::vector<double> ceb) {
  if (fifo.empty() || ceb.empty()) return;
  std::sort(fifo.begin(), fifo.end());
  std::sort(ceb.begin(), ceb.end());
  std::printf("\n--- %s: goodput CDF [Mbps] ---\n", label);
  std::printf("%8s %14s %14s\n", "CDF", "FIFO", "Cebinae");
  for (double q : {0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}) {
    std::printf("%8.2f %14.3f %14.3f\n", q,
                exp::to_mbps(fifo[static_cast<std::size_t>(q * (fifo.size() - 1))]),
                exp::to_mbps(ceb[static_cast<std::size_t>(q * (ceb.size() - 1))]));
  }
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  // Grid order: mix outermost, qdisc inner, so rows are
  // [bbr/FIFO, bbr/Ceb, vegas/FIFO, vegas/Ceb].
  if (rows.size() < 4) return;
  auto line = [](const char* what, const exp::Aggregate& fifo, const exp::Aggregate& ceb,
                 const char* unit, int prec) {
    std::printf("%s: FIFO %s%s  Cebinae %s%s\n", what, exp::pm(fifo, prec).c_str(), unit,
                exp::pm(ceb, prec).c_str(), unit);
  };

  print_cdf("(a) 128 NewReno vs 2 BBR", pooled_goodputs(rows[0]), pooled_goodputs(rows[1]));
  line("BBR aggregate share", exp::over(rows[0], minority_share_pct),
       exp::over(rows[1], minority_share_pct), "%", 1);
  line("JFI", exp::over(rows[0], "jfi"), exp::over(rows[1], "jfi"), "", 3);

  print_cdf("(b) 128 NewReno vs 4 Vegas", pooled_goodputs(rows[2]), pooled_goodputs(rows[3]));
  line("Vegas mean goodput", exp::over(rows[2], minority_mean_mbps),
       exp::over(rows[3], minority_mean_mbps), " Mbps", 3);
  line("JFI", exp::over(rows[2], "jfi"), exp::over(rows[3], "jfi"), "", 3);
}

const exp::Registration registration{exp::ExperimentSpec{
    "fig08",
    "Figure 8: goodput CDFs, aggressive/starved CCA mixes at 1 Gbps",
    "goodput CDFs for 128 NewReno vs 2 BBR / 4 Vegas at 1 Gbps",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae
