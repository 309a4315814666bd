#include "core/agent.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

constexpr std::uint64_t kRate = 100'000'000;  // ~13107 bytes per dT round

CebinaeParams agent_params() {
  CebinaeParams p;
  p.dt = Nanoseconds(1 << 20);
  p.p_rounds = 4;
  return p;
}

Packet pkt(std::uint32_t flow_src) {
  Packet p;
  p.flow = FlowId{flow_src, 1000, 5000, 5000};
  p.size_bytes = kMtuBytes;
  p.payload_bytes = kMssBytes;
  return p;
}

// Drives the data path: every dT, offer an A-heavy mix and transmit at
// roughly link rate (9 MTU per round ~= 103% utilization).
struct AgentHarness {
  Scheduler sched;
  CebinaeQueueDisc qdisc{sched, kRate, 1000 * kMtuBytes, agent_params()};
  CebinaeAgent agent{sched, qdisc};
  bool feeding = true;

  void feed_tick() {
    if (feeding) {
      for (int i = 0; i < 30; ++i) {
        qdisc.enqueue(pkt(1));  // flow 1: the aggressor
        if (i % 3 == 0) qdisc.enqueue(pkt(2));  // flow 2: 1/4 of the load
      }
    }
    for (int i = 0; i < 9; ++i) (void)qdisc.dequeue();
    feed.arm_after(agent_params().dt);
  }
  Timer feed{sched, [this] { feed_tick(); }};

  void start() {
    agent.start();
    feed.arm_after(Microseconds(200));
  }
};

TEST(CebinaeAgent, RotatesEveryDt) {
  AgentHarness h;
  h.agent.start();
  h.sched.run_until(agent_params().dt * 10 + Nanoseconds(1));
  EXPECT_EQ(h.agent.rotations(), 10u);
  EXPECT_EQ(h.qdisc.lbf().rotations(), 10u);
}

TEST(CebinaeAgent, RotationsFallExactlyDtApart) {
  // Traffic flows and commits land between the rotations; none of it moves
  // the ROTATE timer, and every P-th rotation recomputes.
  AgentHarness h;
  h.start();
  const Time dt = agent_params().dt;
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    h.sched.run_until(dt * static_cast<std::int64_t>(k) - Nanoseconds(1));
    ASSERT_EQ(h.agent.rotations(), k - 1) << "rotation " << k;
    h.sched.run_until(dt * static_cast<std::int64_t>(k));
    ASSERT_EQ(h.agent.rotations(), k) << "rotation " << k;
    ASSERT_EQ(h.agent.recomputations(), k / agent_params().p_rounds) << "rotation " << k;
  }
  EXPECT_GE(h.agent.phase_changes(), 1u);  // commits entered the saturated phase
}

TEST(CebinaeAgent, RecomputesEveryPRounds) {
  AgentHarness h;
  h.agent.start();
  h.sched.run_until(agent_params().dt * 12 + Nanoseconds(1));
  EXPECT_EQ(h.agent.recomputations(), 3u);
}

TEST(CebinaeAgent, IdlePortStaysUnsaturated) {
  AgentHarness h;
  h.feeding = false;
  h.start();
  h.sched.run_until(agent_params().dt * 8);
  EXPECT_FALSE(h.agent.snapshot().saturated);
  EXPECT_FALSE(h.qdisc.lbf().saturated_phase());
  EXPECT_TRUE(h.qdisc.top_flows().empty());
}

TEST(CebinaeAgent, SaturationDetectedAndTopFlowClassified) {
  AgentHarness h;
  h.start();
  // Two recompute intervals: the first classifies, the commit applies.
  h.sched.run_until(agent_params().dt * 9);
  EXPECT_TRUE(h.agent.snapshot().saturated);
  EXPECT_GE(h.agent.snapshot().utilization, 0.99);
  ASSERT_EQ(h.agent.snapshot().top_flows.size(), 1u);
  EXPECT_TRUE(h.agent.snapshot().top_flows.contains(FlowId{1, 1000, 5000, 5000}));
  // Membership was committed to the data plane.
  EXPECT_TRUE(h.qdisc.is_top(FlowId{1, 1000, 5000, 5000}));
  EXPECT_FALSE(h.qdisc.is_top(FlowId{2, 1000, 5000, 5000}));
  EXPECT_TRUE(h.qdisc.lbf().saturated_phase());
  EXPECT_GE(h.agent.phase_changes(), 1u);
}

TEST(CebinaeAgent, TopRateIsTaxedMeasuredRate) {
  AgentHarness h;
  h.start();
  h.sched.run_until(agent_params().dt * 9);
  const auto& snap = h.agent.snapshot();
  ASSERT_TRUE(snap.saturated);
  // Flow 1 carries ~3/4 of the transmitted bytes; its taxed rate must be
  // (1 - tau) * measured, i.e. well below capacity but above half.
  const double capacity_Bps = kRate / 8.0;
  EXPECT_GT(snap.top_rate_Bps, 0.5 * capacity_Bps);
  EXPECT_LT(snap.top_rate_Bps, 0.99 * capacity_Bps);
  EXPECT_NEAR(snap.top_rate_Bps + snap.bottom_rate_Bps, capacity_Bps, 1.0);
}

TEST(CebinaeAgent, ReturnsToUnsaturatedWhenLoadStops) {
  AgentHarness h;
  h.start();
  h.sched.run_until(agent_params().dt * 9);
  ASSERT_TRUE(h.qdisc.lbf().saturated_phase());
  h.feeding = false;
  // Two more recompute intervals with no traffic.
  h.sched.run_until(agent_params().dt * 18);
  EXPECT_FALSE(h.agent.snapshot().saturated);
  EXPECT_FALSE(h.qdisc.lbf().saturated_phase());
  EXPECT_TRUE(h.qdisc.top_flows().empty());
  EXPECT_GE(h.agent.phase_changes(), 2u);
}

TEST(CebinaeAgent, CacheIsPolledEveryInterval) {
  AgentHarness h;
  h.start();
  h.sched.run_until(agent_params().dt * 9);
  // The cache was reset at the last recompute; it only holds bytes from the
  // current partial interval (at most P rounds of traffic).
  const auto entries_bytes = h.qdisc.cache().bytes_for(FlowId{1, 1000, 5000, 5000});
  const double interval_bytes = (kRate / 8.0) * agent_params().dt.seconds() * 4;
  if (entries_bytes.has_value()) {
    EXPECT_LT(static_cast<double>(*entries_bytes), 1.5 * interval_bytes);
  }
}

TEST(CebinaeAgent, BothFlowsTopWhenEqual) {
  // Equal feed: both flows within delta_f of the max -> both taxed. A wider
  // delta_f (10%) absorbs the +-1 packet granularity of MTU-sized counters.
  Scheduler sched;
  CebinaeParams p = agent_params();
  p.delta_flow = 0.10;
  CebinaeQueueDisc q(sched, kRate, 1000 * kMtuBytes, p);
  CebinaeAgent agent(sched, q);
  agent.start();
  // Alternate which flow leads each tick so admission cutoffs do not
  // systematically favor one of them.
  int parity = 0;
  Timer tick(sched, [&] {
    for (int i = 0; i < 15; ++i) {
      q.enqueue(pkt(parity == 0 ? 1 : 2));
      q.enqueue(pkt(parity == 0 ? 2 : 1));
    }
    parity ^= 1;
    for (int i = 0; i < 10; ++i) (void)q.dequeue();
    tick.arm_after(agent_params().dt);
  });
  tick.arm_after(Microseconds(200));
  sched.run_until(agent_params().dt * 9);
  EXPECT_TRUE(agent.snapshot().saturated);
  EXPECT_EQ(agent.snapshot().top_flows.size(), 2u);
}

}  // namespace
}  // namespace cebinae
