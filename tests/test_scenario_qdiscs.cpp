// Runner-level behavior of the comparison queue disciplines (AFQ and the
// strawman) — the pieces the ablation benches rely on.
#include <gtest/gtest.h>

#include "runner/scenario.hpp"

namespace cebinae {
namespace {

ScenarioConfig base(QdiscKind qdisc) {
  ScenarioConfig cfg;
  cfg.bottleneck_bps = 50'000'000;
  cfg.buffer_bytes = 256ull * kMtuBytes;
  cfg.qdisc = qdisc;
  cfg.duration = Seconds(12);
  cfg.seed = 5;
  return cfg;
}

TEST(ScenarioQdiscs, AfqSaturatesWithAdequateCalendar) {
  ScenarioConfig cfg = base(QdiscKind::kAfq);
  cfg.afq.num_queues = 128;
  cfg.afq.bytes_per_round = 2 * kMtuBytes;
  cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(20));
  ScenarioResult r = Scenario(cfg).run();
  EXPECT_GT(r.total_goodput_Bps * 8, 0.85 * 50e6);
}

TEST(ScenarioQdiscs, AfqEqualizesRttAsymmetry) {
  auto run = [](QdiscKind q) {
    ScenarioConfig cfg = base(q);
    cfg.afq.num_queues = 256;
    cfg.duration = Seconds(20);
    cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(20));
    cfg.flows[1].rtt = Milliseconds(80);
    return Scenario(cfg).run();
  };
  // Calendar-queue fair queueing beats FIFO's RTT bias decisively.
  const ScenarioResult afq = run(QdiscKind::kAfq);
  const ScenarioResult fifo = run(QdiscKind::kFifo);
  EXPECT_GT(afq.jfi, fifo.jfi + 0.1);
  EXPECT_GT(afq.jfi, 0.75);
}

TEST(ScenarioQdiscs, AfqCollapsesWhenHorizonTooSmall) {
  // Equation 1: high-RTT flows need a scheduling horizon ~their share of
  // the BDP; nQ=8 with BpR=2 MTU truncates it, nQ=128 suffices.
  auto run = [](std::uint32_t nq) {
    ScenarioConfig cfg;
    cfg.bottleneck_bps = 100'000'000;
    cfg.buffer_bytes = 1700ull * kMtuBytes;
    cfg.qdisc = QdiscKind::kAfq;
    cfg.afq.num_queues = nq;
    cfg.afq.bytes_per_round = 2 * kMtuBytes;
    cfg.duration = Seconds(25);
    cfg.seed = 5;
    cfg.flows = flows_of(CcaType::kNewReno, 4, Milliseconds(200));
    return Scenario(cfg).run();
  };
  const ScenarioResult starved = run(8);
  const ScenarioResult fine = run(128);
  EXPECT_LT(starved.total_goodput_Bps, 0.6 * fine.total_goodput_Bps);
}

TEST(ScenarioQdiscs, StrawmanMatchesFifoThroughput) {
  ScenarioConfig fifo = base(QdiscKind::kFifo);
  fifo.flows = flows_of(CcaType::kNewReno, 4, Milliseconds(30));
  const ScenarioResult f = Scenario(fifo).run();

  ScenarioConfig straw = base(QdiscKind::kStrawman);
  straw.flows = flows_of(CcaType::kNewReno, 4, Milliseconds(30));
  const ScenarioResult s = Scenario(straw).run();

  // Freeze-at-max never caps a flow below the current maximum, so identical
  // homogeneous flows are barely affected.
  EXPECT_NEAR(s.total_goodput_Bps / f.total_goodput_Bps, 1.0, 0.1);
}

TEST(ScenarioQdiscs, StrawmanDoesNotRepairUnfairness) {
  // Scaled Fig. 2a narrative: Vegas victims vs a NewReno aggressor. The
  // strawman must not meaningfully improve JFI over FIFO.
  auto run = [](QdiscKind q) {
    ScenarioConfig cfg = base(q);
    cfg.duration = Seconds(20);
    cfg.flows = flows_of(CcaType::kVegas, 8, Milliseconds(40));
    cfg.flows.push_back(FlowSpec{CcaType::kNewReno, Milliseconds(40)});
    return Scenario(cfg).run();
  };
  const ScenarioResult fifo = run(QdiscKind::kFifo);
  const ScenarioResult straw = run(QdiscKind::kStrawman);
  const ScenarioResult ceb = run(QdiscKind::kCebinae);
  EXPECT_LT(straw.jfi, fifo.jfi + 0.15);  // no meaningful repair
  EXPECT_GT(ceb.jfi, fifo.jfi + 0.2);     // Cebinae repairs
}

TEST(ScenarioQdiscs, AllQdiscKindsRunToCompletion) {
  for (QdiscKind q : {QdiscKind::kFifo, QdiscKind::kFqCoDel, QdiscKind::kCebinae,
                      QdiscKind::kAfq, QdiscKind::kStrawman}) {
    ScenarioConfig cfg = base(q);
    cfg.duration = Seconds(4);
    cfg.flows = flows_of(CcaType::kCubic, 3, Milliseconds(25));
    const ScenarioResult r = Scenario(cfg).run();
    EXPECT_GT(r.total_goodput_Bps, 0.0) << to_string(q);
    EXPECT_LE(r.throughput_Bps[0] * 8, 50e6 * 1.001) << to_string(q);
  }
}

}  // namespace
}  // namespace cebinae
