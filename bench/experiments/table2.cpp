// Table 2: throughput, goodput, and JFI for 25 network configurations
// (bandwidth x RTT x buffer x CCA mix), each under FIFO, ideal FQ (FQ-CoDel
// with per-flow queues), and Cebinae.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"
#include "runner/scenario.hpp"

namespace cebinae {
namespace {

struct CcaGroup {
  CcaType cca;
  int count;
};

struct Row {
  std::uint64_t bps;
  std::vector<double> rtts_ms;  // one per group, or a single shared value
  std::uint64_t buf_mtu;
  std::vector<CcaGroup> groups;
};

// The 25 configurations of Table 2, in paper order.
const std::vector<Row>& rows_of_table2() {
  static const std::vector<Row> kRows = {
      {100'000'000, {20.8, 28}, 250, {{CcaType::kNewReno, 2}, {CcaType::kNewReno, 8}}},
      {100'000'000, {20.4, 40}, 350, {{CcaType::kCubic, 8}, {CcaType::kCubic, 2}}},
      {100'000'000, {20.4, 60}, 500, {{CcaType::kVegas, 2}, {CcaType::kVegas, 8}}},
      {100'000'000, {200}, 1700, {{CcaType::kNewReno, 16}, {CcaType::kCubic, 1}}},
      {100'000'000, {100}, 850, {{CcaType::kNewReno, 16}, {CcaType::kCubic, 1}}},
      {100'000'000, {50}, 420, {{CcaType::kNewReno, 16}, {CcaType::kCubic, 1}}},
      {100'000'000, {50}, 420, {{CcaType::kVegas, 16}, {CcaType::kCubic, 1}}},
      {100'000'000, {100}, 850, {{CcaType::kVegas, 16}, {CcaType::kNewReno, 1}}},
      {100'000'000, {100}, 850, {{CcaType::kVegas, 128}, {CcaType::kNewReno, 1}}},
      {100'000'000, {60}, 500,
       {{CcaType::kVegas, 8}, {CcaType::kNewReno, 8}, {CcaType::kCubic, 2}}},
      {1'000'000'000, {5}, 420, {{CcaType::kNewReno, 32}, {CcaType::kCubic, 8}}},
      {1'000'000'000, {10}, 850, {{CcaType::kVegas, 128}, {CcaType::kCubic, 1}}},
      {1'000'000'000, {10}, 850, {{CcaType::kVegas, 1024}, {CcaType::kCubic, 2}}},
      {1'000'000'000, {50}, 4200, {{CcaType::kNewReno, 128}, {CcaType::kBbr, 1}}},
      {1'000'000'000, {50}, 4200, {{CcaType::kNewReno, 128}, {CcaType::kBbr, 2}}},
      {1'000'000'000, {50}, 21000, {{CcaType::kNewReno, 128}, {CcaType::kBbr, 2}}},
      {1'000'000'000, {100}, 8350, {{CcaType::kNewReno, 128}, {CcaType::kBbr, 2}}},
      {1'000'000'000, {10}, 850, {{CcaType::kVegas, 64}, {CcaType::kNewReno, 1}}},
      {1'000'000'000, {100}, 8500, {{CcaType::kVegas, 4}, {CcaType::kNewReno, 128}}},
      {1'000'000'000, {100, 64}, 8500, {{CcaType::kVegas, 4}, {CcaType::kNewReno, 128}}},
      {1'000'000'000, {100}, 8500, {{CcaType::kVegas, 8}, {CcaType::kNewReno, 128}}},
      {1'000'000'000, {10}, 850, {{CcaType::kVegas, 128}, {CcaType::kBbr, 1}}},
      {1'000'000'000, {100}, 8500, {{CcaType::kBic, 2}, {CcaType::kCubic, 32}}},
      {10'000'000'000, {50, 44}, 41667, {{CcaType::kNewReno, 128}, {CcaType::kCubic, 16}}},
      {10'000'000'000, {28, 28}, 25000, {{CcaType::kNewReno, 128}, {CcaType::kCubic, 128}}},
  };
  return kRows;
}

std::string describe(const Row& row) {
  std::string s = "{";
  for (std::size_t g = 0; g < row.groups.size(); ++g) {
    if (g) s += ", ";
    s += std::string(to_string(row.groups[g].cca)) + ":" +
         std::to_string(row.groups[g].count);
  }
  s += "}";
  return s;
}

// Scaled run durations: long enough for convergence behavior to show, short
// enough that the whole suite stays interactive; faster links converge in
// fewer wall-clock seconds.
Time duration_for(const exp::RunOptions& opts, std::uint64_t bps) {
  if (bps >= 10'000'000'000ull) return opts.scaled(Seconds(100), Seconds(5));
  if (bps >= 1'000'000'000ull) return opts.scaled(Seconds(100), Seconds(12));
  return opts.scaled(Seconds(100), Seconds(30));
}

// Configure a ScenarioConfig for one of the 25 rows (qdisc is applied by
// the sweep's qdisc dimension).
void apply_row(ScenarioConfig& cfg, const Row& row, const exp::RunOptions& opts) {
  cfg.bottleneck_bps = row.bps;
  cfg.buffer_bytes = row.buf_mtu * kMtuBytes;
  cfg.duration = duration_for(opts, row.bps);
  cfg.flows.clear();
  for (std::size_t g = 0; g < row.groups.size(); ++g) {
    const double rtt_ms =
        row.rtts_ms.size() == 1 ? row.rtts_ms[0] : row.rtts_ms[g % row.rtts_ms.size()];
    for (int i = 0; i < row.groups[g].count; ++i) {
      FlowSpec f;
      f.cca = row.groups[g].cca;
      f.rtt = MillisecondsF(rtt_ms);
      cfg.flows.push_back(f);
    }
  }
}

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  // 25 rows x 3 qdiscs (x trials), expanded row-outermost so aggregated row
  // index is table_row * 3 + qdisc.
  std::vector<std::pair<std::string, exp::SweepGrid::Mutator>> row_variants;
  for (std::size_t r = 0; r < rows_of_table2().size(); ++r) {
    row_variants.emplace_back(
        std::string("r").append(std::to_string(r)),
        [r, opts](ScenarioConfig& cfg) { apply_row(cfg, rows_of_table2()[r], opts); });
  }
  ScenarioConfig base;
  base.flows = {FlowSpec{}};  // placeholder; every row mutator rewrites flows
  return exp::SweepGrid(base)
      .variants("row", std::move(row_variants))
      .qdiscs({QdiscKind::kFifo, QdiscKind::kFqCoDel, QdiscKind::kCebinae})
      .trials(opts.trials_or(1))
      .build();
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  std::printf("%-9s %-14s %-7s %-29s | %-29s | %-29s | %-23s\n", "Btl.BW", "RTTs[ms]",
              "Buf", "CCAs", "Throughput[Mbps] F/FQ/Ceb", "Goodput[Mbps] F/FQ/Ceb",
              "JFI FIFO/FQ/Ceb");
  for (std::size_t ri = 0; ri < rows_of_table2().size() && ri * 3 + 2 < rows.size(); ++ri) {
    const Row& row = rows_of_table2()[ri];
    const exp::ResultRow& fifo = rows[ri * 3 + 0];
    const exp::ResultRow& fq = rows[ri * 3 + 1];
    const exp::ResultRow& ceb = rows[ri * 3 + 2];

    std::string rtts = "{";
    for (std::size_t i = 0; i < row.rtts_ms.size(); ++i) {
      if (i) rtts += ",";
      char rtt[16];
      std::snprintf(rtt, sizeof(rtt), "%g", row.rtts_ms[i]);
      rtts += rtt;
    }
    rtts += "}";

    auto col = [](const exp::ResultRow& r, const auto& value, int prec) {
      return exp::pm(exp::over(r, value), prec);
    };
    std::printf(
        "%-9s %-14s %-7llu %-29s | %9s %9s %9s | %9s %9s %9s | %7s %7s %7s\n",
        row.bps >= 10'000'000'000ull ? "10 Gbps"
        : row.bps >= 1'000'000'000ull ? "1 Gbps"
                                      : "100 Mbps",
        rtts.c_str(), static_cast<unsigned long long>(row.buf_mtu), describe(row).c_str(),
        col(fifo, exp::throughput_mbps, 1).c_str(), col(fq, exp::throughput_mbps, 1).c_str(),
        col(ceb, exp::throughput_mbps, 1).c_str(), col(fifo, exp::goodput_mbps, 1).c_str(),
        col(fq, exp::goodput_mbps, 1).c_str(), col(ceb, exp::goodput_mbps, 1).c_str(),
        col(fifo, "jfi", 3).c_str(), col(fq, "jfi", 3).c_str(), col(ceb, "jfi", 3).c_str());
    std::fflush(stdout);
  }
}

const exp::Registration registration{exp::ExperimentSpec{
    "table2",
    "Table 2: CCA/RTT/bandwidth sweep",
    "25 configs (bw x RTT x buffer x CCA mix) under FIFO/FQ/Cebinae",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae
