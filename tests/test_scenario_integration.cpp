// End-to-end integration tests: full scenarios through the runner, asserting
// the qualitative behaviors the paper's evaluation is built on.
#include "runner/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "exp/json_row.hpp"
#include "metrics/jfi.hpp"

namespace cebinae {
namespace {

ScenarioConfig base_config(QdiscKind qdisc) {
  ScenarioConfig cfg;
  cfg.bottleneck_bps = 50'000'000;
  cfg.buffer_bytes = 256ull * kMtuBytes;
  cfg.qdisc = qdisc;
  cfg.duration = Seconds(15);
  cfg.seed = 3;
  return cfg;
}

TEST(ScenarioIntegration, SingleFlowSaturatesFifoBottleneck) {
  ScenarioConfig cfg = base_config(QdiscKind::kFifo);
  cfg.flows = flows_of(CcaType::kNewReno, 1, Milliseconds(20));
  ScenarioResult r = Scenario(cfg).run();
  EXPECT_GT(r.total_goodput_Bps * 8, 0.88 * 50e6);
  EXPECT_LE(r.throughput_Bps[0] * 8, 50e6 * 1.001);
}

// ECN is not modelled: a flow that asks for it aborts instead of running
// without it.
TEST(ScenarioIntegration, EcnFlowAborts) {
  ScenarioConfig cfg = base_config(QdiscKind::kFifo);
  cfg.flows = flows_of(CcaType::kNewReno, 1, Milliseconds(20));
  cfg.flows[0].ecn = true;
  EXPECT_DEATH(Scenario{cfg}, "ECN is not modelled");
}

TEST(ScenarioIntegration, TwoEqualFlowsShareFairlyUnderFifo) {
  ScenarioConfig cfg = base_config(QdiscKind::kFifo);
  cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(20));
  ScenarioResult r = Scenario(cfg).run();
  EXPECT_GT(r.jfi, 0.9);
}

TEST(ScenarioIntegration, RttAsymmetryIsUnfairUnderFifo) {
  ScenarioConfig cfg = base_config(QdiscKind::kFifo);
  cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(20));
  cfg.flows[1].rtt = Milliseconds(120);
  ScenarioResult r = Scenario(cfg).run();
  // The short-RTT flow dominates.
  EXPECT_GT(r.goodput_Bps[0], 1.5 * r.goodput_Bps[1]);
}

TEST(ScenarioIntegration, FqCodelEqualizesRttAsymmetry) {
  ScenarioConfig cfg = base_config(QdiscKind::kFqCoDel);
  cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(20));
  cfg.flows[1].rtt = Milliseconds(120);
  ScenarioResult r = Scenario(cfg).run();
  EXPECT_GT(r.jfi, 0.9);
}

TEST(ScenarioIntegration, CebinaeImprovesRttUnfairness) {
  ScenarioConfig fifo_cfg = base_config(QdiscKind::kFifo);
  fifo_cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(20));
  fifo_cfg.flows[1].rtt = Milliseconds(120);
  fifo_cfg.duration = Seconds(30);
  ScenarioResult fifo = Scenario(fifo_cfg).run();

  ScenarioConfig ceb_cfg = fifo_cfg;
  ceb_cfg.qdisc = QdiscKind::kCebinae;
  ScenarioResult ceb = Scenario(ceb_cfg).run();

  EXPECT_GT(ceb.jfi, fifo.jfi);
  // Efficiency stays high despite the tax.
  EXPECT_GT(ceb.total_goodput_Bps, 0.85 * fifo.total_goodput_Bps);
}

TEST(ScenarioIntegration, CebinaeTaxesVegasStarvation) {
  // 8 Vegas vs 1 NewReno (scaled-down Fig. 7): FIFO starves Vegas badly;
  // Cebinae must improve the fairness index substantially.
  ScenarioConfig fifo_cfg = base_config(QdiscKind::kFifo);
  fifo_cfg.flows = flows_of(CcaType::kVegas, 8, Milliseconds(40));
  fifo_cfg.flows.push_back(FlowSpec{CcaType::kNewReno, Milliseconds(40)});
  fifo_cfg.duration = Seconds(30);
  ScenarioResult fifo = Scenario(fifo_cfg).run();

  ScenarioConfig ceb_cfg = fifo_cfg;
  ceb_cfg.qdisc = QdiscKind::kCebinae;
  ScenarioResult ceb = Scenario(ceb_cfg).run();

  EXPECT_LT(fifo.jfi, 0.65);  // documented starvation under FIFO
  EXPECT_GT(ceb.jfi, fifo.jfi + 0.1);
}

TEST(ScenarioIntegration, CebinaeAgentObservesSaturation) {
  ScenarioConfig cfg = base_config(QdiscKind::kCebinae);
  cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(20));
  Scenario scenario(cfg);
  scenario.run();
  CebinaeAgent* agent = scenario.agent(0);
  ASSERT_NE(agent, nullptr);
  EXPECT_GT(agent->rotations(), 0u);
  EXPECT_GT(agent->recomputations(), 0u);
  // Long-lived greedy flows saturate the link.
  EXPECT_TRUE(agent->snapshot().saturated);
  EXPECT_FALSE(agent->snapshot().top_flows.empty());
}

TEST(ScenarioIntegration, DerivedCebinaeParamsSatisfyEq2) {
  ScenarioConfig cfg = base_config(QdiscKind::kCebinae);
  cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(100));
  Scenario scenario(cfg);
  ASSERT_NE(scenario.cebinae_qdisc(), nullptr);
  const CebinaeParams& p = scenario.cebinae_qdisc()->params();
  const double drain_s = static_cast<double>(cfg.buffer_bytes) * 8.0 /
                         static_cast<double>(cfg.bottleneck_bps);
  EXPECT_GE(p.dt.seconds(), drain_s);                       // Eq. 2
  EXPECT_GE((p.dt * p.p_rounds).seconds(), 0.1);            // covers max RTT
  EXPECT_EQ(p.dt.ns() & (p.dt.ns() - 1), 0);                // power of two
}

TEST(ScenarioIntegration, ParkingLotIdealMatchesWaterFilling) {
  ScenarioConfig cfg = base_config(QdiscKind::kFifo);
  cfg.chain_links = 3;
  // 2 end-to-end flows + 2 local flows on the middle link.
  cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(40));
  for (int i = 0; i < 2; ++i) {
    FlowSpec local{CcaType::kNewReno, Milliseconds(20)};
    local.enter = 1;
    local.exit = 2;
    cfg.flows.push_back(local);
  }
  Scenario scenario(cfg);
  const auto ideal = ideal_goodputs_Bps(scenario.config());
  ASSERT_EQ(ideal.size(), 4u);
  // All four contend on the middle link only: equal shares.
  for (double r : ideal) EXPECT_NEAR(r, ideal[0], 1.0);
}

TEST(ScenarioIntegration, MultiBottleneckFlowsAreForwarded) {
  ScenarioConfig cfg = base_config(QdiscKind::kFifo);
  cfg.chain_links = 2;
  cfg.duration = Seconds(8);
  cfg.flows = flows_of(CcaType::kNewReno, 1, Milliseconds(40));  // end-to-end
  FlowSpec local{CcaType::kNewReno, Milliseconds(20)};
  local.enter = 1;
  local.exit = 2;
  cfg.flows.push_back(local);
  ScenarioResult r = Scenario(cfg).run();
  EXPECT_GT(r.goodput_Bps[0], 0.0);
  EXPECT_GT(r.goodput_Bps[1], 0.0);
  // Link 1 carries both flows; link 0 only the end-to-end flow.
  EXPECT_GT(r.throughput_Bps[1], r.throughput_Bps[0]);
}

TEST(ScenarioIntegration, DeterministicAcrossRuns) {
  ScenarioConfig cfg = base_config(QdiscKind::kCebinae);
  cfg.duration = Seconds(5);
  cfg.flows = flows_of(CcaType::kCubic, 3, Milliseconds(30));
  ScenarioResult a = Scenario(cfg).run();
  ScenarioResult b = Scenario(cfg).run();
  ASSERT_EQ(a.goodput_Bps.size(), b.goodput_Bps.size());
  for (std::size_t i = 0; i < a.goodput_Bps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.goodput_Bps[i], b.goodput_Bps[i]);
  }
}

TEST(ScenarioIntegration, ProbesFireDuringRun) {
  ScenarioConfig cfg = base_config(QdiscKind::kFifo);
  cfg.duration = Seconds(5);
  cfg.flows = flows_of(CcaType::kNewReno, 1, Milliseconds(20));
  Scenario scenario(cfg);
  scenario.enable_trace(Seconds(1));
  scenario.run();
  EXPECT_EQ(scenario.trace().size(), 5u);
}

// Scalar column names of a trace row, in serialization order.
std::vector<std::string> scalar_names(const exp::JsonObject& row) {
  std::vector<std::string> names;
  for (const auto& [name, value] : row.fields()) {
    if (name != "t_s" && !std::holds_alternative<std::vector<double>>(value)) {
      names.push_back(name);
    }
  }
  return names;
}

// Runs `cfg` traced every `period` and checks, at every tick, that the
// row's network and TCP counts are the sums over the scenario's
// components. The check fires right after the trace tick at the same
// time, with no event in between. Returns the last row.
exp::JsonObject run_and_check_trace_sums(const ScenarioConfig& cfg, Time period) {
  Scenario scenario(cfg);
  scenario.enable_trace(period);
  Network& net = scenario.network();
  int ticks = 0;
  Timer check(net.scheduler(), [&] {
    check.arm_after(period);
    const exp::JsonObject& row = scenario.trace().back();
    std::uint64_t tx_bytes = 0, tx_packets = 0;
    for (NodeId n = 0; n < net.node_count(); ++n) {
      for (std::size_t d = 0; d < net.node(n).device_count(); ++d) {
        tx_bytes += net.node(n).device(d).tx_bytes();
        tx_packets += net.node(n).device(d).tx_packets();
      }
    }
    std::uint64_t retransmits = 0, rtos = 0, fast_retransmits = 0;
    for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
      retransmits += scenario.sender(i).retransmissions();
      rtos += scenario.sender(i).rto_count();
      fast_retransmits += scenario.sender(i).fast_retransmit_count();
    }
    EXPECT_EQ(row.num("net.tx_bytes"), static_cast<double>(tx_bytes));
    EXPECT_EQ(row.num("net.tx_packets"), static_cast<double>(tx_packets));
    EXPECT_EQ(row.num("tcp.retransmits"), static_cast<double>(retransmits));
    EXPECT_EQ(row.num("tcp.rtos"), static_cast<double>(rtos));
    EXPECT_EQ(row.num("tcp.fast_retransmits"), static_cast<double>(fast_retransmits));
    ++ticks;
  });
  check.arm_after(period);
  scenario.run();
  EXPECT_EQ(static_cast<std::size_t>(ticks), scenario.trace().size());
  return scenario.trace().back();
}

TEST(ScenarioTrace, ScalarColumnsAreInOrderAndSumEveryComponent) {
  // One Cebinae link.
  ScenarioConfig ceb = base_config(QdiscKind::kCebinae);
  ceb.duration = Seconds(2);
  ceb.buffer_bytes = 32ull * kMtuBytes;
  ceb.flows = flows_of(CcaType::kNewReno, 3, Milliseconds(20));
  const exp::JsonObject ceb_last = run_and_check_trace_sums(ceb, Milliseconds(250));
  EXPECT_EQ(scalar_names(ceb_last),
            (std::vector<std::string>{
                "jfi", "qdisc.sojourn_s.l0.n", "qdisc.sojourn_s.l0.mean",
                "qdisc.sojourn_s.l0.max", "net.tx_bytes", "net.tx_packets", "tcp.retransmits",
                "tcp.rtos", "tcp.fast_retransmits", "tcp.srtt_s.n", "tcp.srtt_s.mean",
                "tcp.srtt_s.max"}));
  EXPECT_GT(ceb_last.num("tcp.retransmits"), 0.0);

  // Three FIFO links: every link's sojourn columns come before net.*.
  ScenarioConfig fifo = base_config(QdiscKind::kFifo);
  fifo.chain_links = 3;
  fifo.duration = Seconds(2);
  fifo.buffer_bytes = 32ull * kMtuBytes;
  fifo.flows = flows_of(CcaType::kNewReno, 3, Milliseconds(20));
  fifo.flows[1].enter = 1;
  fifo.flows[2].enter = 2;
  const exp::JsonObject fifo_last = run_and_check_trace_sums(fifo, Milliseconds(250));
  EXPECT_EQ(scalar_names(fifo_last),
            (std::vector<std::string>{
                "jfi", "qdisc.sojourn_s.l0.n", "qdisc.sojourn_s.l0.mean",
                "qdisc.sojourn_s.l0.max", "qdisc.sojourn_s.l1.n", "qdisc.sojourn_s.l1.mean",
                "qdisc.sojourn_s.l1.max", "qdisc.sojourn_s.l2.n", "qdisc.sojourn_s.l2.mean",
                "qdisc.sojourn_s.l2.max", "net.tx_bytes", "net.tx_packets", "tcp.retransmits",
                "tcp.rtos", "tcp.fast_retransmits", "tcp.srtt_s.n", "tcp.srtt_s.mean",
                "tcp.srtt_s.max"}));
  EXPECT_GT(fifo_last.num("tcp.fast_retransmits"), 0.0);
}

TEST(ScenarioIntegration, TailGoodputIsTheSecondHalfOfASubSecondRun) {
  // D = 300 ms: the second half does not start on a 1-s stats bucket edge.
  // A 150-ms trace's row at t = D measures the same window, [D/2, D).
  ScenarioConfig cfg = base_config(QdiscKind::kFifo);
  cfg.duration = Milliseconds(300);
  cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(20));
  Scenario scenario(cfg);
  scenario.enable_trace(Milliseconds(150));
  const ScenarioResult r = scenario.run();
  ASSERT_EQ(scenario.trace().size(), 2u);
  const std::vector<double>& tput = scenario.trace()[1].arr("tput_Bps");
  ASSERT_EQ(r.tail_goodput_Bps.size(), tput.size());
  for (std::size_t i = 0; i < tput.size(); ++i) {
    EXPECT_GT(tput[i], 0.0);
    EXPECT_DOUBLE_EQ(r.tail_goodput_Bps[i], tput[i]);
  }
}

TEST(ScenarioIntegration, BbrVsNewRenoIsUnfairUnderFifo) {
  // Scaled-down Fig. 8a: BBR claims far more than its share against many
  // NewReno flows.
  ScenarioConfig cfg = base_config(QdiscKind::kFifo);
  cfg.flows = flows_of(CcaType::kNewReno, 8, Milliseconds(40));
  cfg.flows.push_back(FlowSpec{CcaType::kBbr, Milliseconds(40)});
  cfg.duration = Seconds(20);
  ScenarioResult r = Scenario(cfg).run();
  const double fair_share = r.total_goodput_Bps / 9.0;
  EXPECT_GT(r.goodput_Bps.back(), 1.5 * fair_share);
}

}  // namespace
}  // namespace cebinae
