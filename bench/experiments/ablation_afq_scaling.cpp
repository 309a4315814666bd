// Ablation (paper §2, Equation 1): AFQ's fairness needs nQ x BpR to cover
// every flow's buffering requirement (~the bandwidth-delay product), so its
// queue requirements grow with RTT — while Cebinae holds 2 queues.
//
// Sweep the flows' RTT with a fixed AFQ calendar (nQ x BpR) and watch AFQ's
// high-RTT throughput collapse as the horizon truncates the flows' windows;
// Cebinae (2 queues) and FIFO are unaffected.
#include <cstdio>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

const std::vector<double> kRttsMs = {10, 40, 100, 200};
const std::vector<const char*> kSchemes = {"FIFO", "AFQ8", "AFQ32", "AFQ128", "Cebinae"};

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  ScenarioConfig cfg;
  cfg.bottleneck_bps = 100'000'000;
  cfg.buffer_bytes = 1700ull * kMtuBytes;
  cfg.afq.bytes_per_round = 2 * kMtuBytes;
  cfg.duration = opts.scaled(Seconds(100), Seconds(30));

  auto afq = [](std::uint32_t nq) {
    return [nq](ScenarioConfig& c) {
      c.qdisc = QdiscKind::kAfq;
      c.afq.num_queues = nq;
    };
  };
  return exp::SweepGrid(cfg)
      .axis("rtt_ms", kRttsMs,
            [](ScenarioConfig& c, double rtt_ms) {
              c.flows = flows_of(CcaType::kNewReno, 4, MillisecondsF(rtt_ms));
            })
      .variants("scheme",
                {{"FIFO", [](ScenarioConfig& c) { c.qdisc = QdiscKind::kFifo; }},
                 {"AFQ8", afq(8)},
                 {"AFQ32", afq(32)},
                 {"AFQ128", afq(128)},
                 {"Cebinae", [](ScenarioConfig& c) { c.qdisc = QdiscKind::kCebinae; }}})
      .build();
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  std::printf("4x NewReno on 100 Mbps; AFQ BpR = 2 MTU.\n");
  std::printf("per-flow buffer_req ~= BDP/4; AFQ serves a flow only if it fits nQ x BpR.\n\n");
  std::printf("%-8s | %12s | %20s %20s %20s | %12s\n", "RTT[ms]", "FIFO gput", "AFQ(nQ=8)",
              "AFQ(nQ=32)", "AFQ(nQ=128)", "Cebinae");
  const std::size_t n_schemes = kSchemes.size();
  for (std::size_t i = 0; (i + 1) * n_schemes <= rows.size() && i < kRttsMs.size(); ++i) {
    const exp::ResultRow& fifo = rows[i * n_schemes + 0];
    const exp::ResultRow& afq8 = rows[i * n_schemes + 1];
    const exp::ResultRow& afq32 = rows[i * n_schemes + 2];
    const exp::ResultRow& afq128 = rows[i * n_schemes + 3];
    const exp::ResultRow& ceb = rows[i * n_schemes + 4];
    auto afq_col = [](const exp::ResultRow& r) {
      return exp::pm(exp::over(r, exp::goodput_mbps), 1) + " (" +
             exp::pm(exp::over(r, "jfi"), 2) + ")";
    };
    std::printf("%-8.0f | %9s Mb | %20s %20s %20s | %9s Mb\n", kRttsMs[i],
                exp::pm(exp::over(fifo, exp::goodput_mbps), 1).c_str(), afq_col(afq8).c_str(),
                afq_col(afq32).c_str(), afq_col(afq128).c_str(),
                exp::pm(exp::over(ceb, exp::goodput_mbps), 1).c_str());
    std::fflush(stdout);
  }
  std::printf("\n(AFQ numbers show goodput with JFI in parens: with too few queues the\n"
              " calendar horizon caps each flow's usable window, collapsing high-RTT\n"
              " throughput; Cebinae needs only 2 queues at any RTT)\n");
}

const exp::Registration registration{exp::ExperimentSpec{
    "ablation_afq_scaling",
    "Ablation: AFQ calendar requirements vs RTT (Equation 1)",
    "AFQ queue-count scaling vs RTT against FIFO and Cebinae",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae
