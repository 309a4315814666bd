// Figure 9: RTT-asymmetry sweep for Cubic. Four Cubic flows at a fixed
// 256 ms RTT compete with four Cubic flows whose RTT sweeps 16..256 ms over
// a 400 Mbps bottleneck with a 3 MB buffer; JFI and total goodput for
// FIFO / FQ / Cebinae.
#include <cstdio>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

const std::vector<double> kRttsMs = {16, 32, 64, 128, 256};

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  ScenarioConfig cfg;
  cfg.bottleneck_bps = 400'000'000;
  cfg.buffer_bytes = 3 * 1024 * 1024;
  // 256 ms RTT flows need tens of seconds to converge even in quick mode.
  cfg.duration = opts.scaled(Seconds(100), Seconds(40));
  return exp::SweepGrid(cfg)
      .axis("rtt_ms", kRttsMs,
            [](ScenarioConfig& c, double rtt_ms) {
              c.flows = flows_of(CcaType::kCubic, 4, Milliseconds(256));
              for (const FlowSpec& f :
                   flows_of(CcaType::kCubic, 4, MillisecondsF(rtt_ms))) {
                c.flows.push_back(f);
              }
            })
      .qdiscs({QdiscKind::kFifo, QdiscKind::kFqCoDel, QdiscKind::kCebinae})
      .build();
}

// The paper's y-axis is MBps, not Mbps.
double goodput_MBps(const exp::JsonObject& trial) {
  return trial.num("total_goodput_Bps") / 1e6;
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  std::printf("%-8s | %10s %10s %10s | %14s %14s %14s\n", "RTT[ms]", "JFI F", "JFI FQ",
              "JFI Ceb", "Gput F[MBps]", "Gput FQ", "Gput Ceb");
  for (std::size_t i = 0; i * 3 + 2 < rows.size() && i < kRttsMs.size(); ++i) {
    const exp::ResultRow& fifo = rows[i * 3 + 0];
    const exp::ResultRow& fq = rows[i * 3 + 1];
    const exp::ResultRow& ceb = rows[i * 3 + 2];
    std::printf("%-8.0f | %10s %10s %10s | %14s %14s %14s\n", kRttsMs[i],
                exp::pm(exp::over(fifo, "jfi"), 3).c_str(),
                exp::pm(exp::over(fq, "jfi"), 3).c_str(),
                exp::pm(exp::over(ceb, "jfi"), 3).c_str(),
                exp::pm(exp::over(fifo, goodput_MBps), 1).c_str(),
                exp::pm(exp::over(fq, goodput_MBps), 1).c_str(),
                exp::pm(exp::over(ceb, goodput_MBps), 1).c_str());
    std::fflush(stdout);
  }
  std::printf("\n(goodput in MBps, matching the paper's y-axis)\n");
}

const exp::Registration registration{exp::ExperimentSpec{
    "fig09",
    "Figure 9: RTT asymmetry (4+4 Cubic, 400 Mbps, 3 MB buffer)",
    "RTT asymmetry sweep, 4 fixed + 4 swept Cubic, FIFO/FQ/Cebinae",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae
