// Per-queue sojourn instrumentation: every QueueDisc stamps packets at
// enqueue and feeds dequeue − enqueue deltas into an obs::Histogram, and
// Scenario wires a per-link histogram that the standard trace rows export.
#include <gtest/gtest.h>

#include <cmath>

#include "obs/metrics.hpp"
#include "queueing/fifo_queue.hpp"
#include "runner/scenario.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {
namespace {

Packet pkt(std::uint32_t size) {
  Packet p;
  p.size_bytes = size;
  return p;
}

TEST(Sojourn, FifoRecordsDequeueMinusEnqueue) {
  Scheduler sched;
  obs::MetricsRegistry reg;
  obs::Histogram& hist = reg.histogram("qdisc.sojourn_s.l0");

  FifoQueue q(FifoQueue::unlimited());
  q.instrument_sojourn(sched, hist);

  Timer enqueue_a(sched, [&] { q.enqueue(pkt(100)); });
  Timer enqueue_b(sched, [&] { q.enqueue(pkt(100)); });
  Timer dequeue_a(sched, [&] { q.dequeue(); });
  Timer dequeue_b(sched, [&] { q.dequeue(); });
  enqueue_a.arm_at(Time::zero());
  enqueue_b.arm_at(Milliseconds(5));
  // First packet waits 10 ms, second waits 15 ms.
  dequeue_a.arm_at(Milliseconds(10));
  dequeue_b.arm_at(Milliseconds(20));
  sched.run();

  EXPECT_EQ(hist.count(), 2u);
  EXPECT_NEAR(hist.max(), 0.015, 1e-12);
  EXPECT_NEAR(hist.mean(), 0.0125, 1e-12);
}

TEST(Sojourn, UninstrumentedQueueIsUnaffected) {
  FifoQueue q(FifoQueue::unlimited());
  q.enqueue(pkt(100));
  EXPECT_TRUE(q.dequeue().has_value());
}

TEST(Sojourn, DroppedPacketsNeverReachTheHistogram) {
  Scheduler sched;
  obs::MetricsRegistry reg;
  obs::Histogram& hist = reg.histogram("qdisc.sojourn_s.l0");

  FifoQueue q(150);  // second 100 B packet is tail-dropped
  q.instrument_sojourn(sched, hist);
  q.enqueue(pkt(100));
  q.enqueue(pkt(100));
  q.dequeue();
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(hist.count(), 1u);
}

// Every qdisc kind exposes its per-link sojourn histogram through the
// standard trace rows as qdisc.sojourn_s.l0.{n,mean,max}.
TEST(Sojourn, ScenarioTraceExportsSojournHistogram) {
  for (QdiscKind kind : {QdiscKind::kFifo, QdiscKind::kFqCoDel, QdiscKind::kCebinae,
                         QdiscKind::kAfq, QdiscKind::kStrawman}) {
    ScenarioConfig cfg;
    cfg.qdisc = kind;
    cfg.duration = Milliseconds(500);
    cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(20));

    Scenario scenario(cfg);
    scenario.enable_trace(Milliseconds(100));
    scenario.run();

    const auto& rows = scenario.trace();
    ASSERT_FALSE(rows.empty()) << to_string(kind);
    const exp::JsonObject& last = rows.back();
    const double n = last.num("qdisc.sojourn_s.l0.n");
    const double mean = last.num("qdisc.sojourn_s.l0.mean");
    const double max = last.num("qdisc.sojourn_s.l0.max");
    EXPECT_FALSE(std::isnan(n)) << to_string(kind);
    EXPECT_GT(n, 0.0) << to_string(kind);
    EXPECT_FALSE(std::isnan(mean)) << to_string(kind);
    EXPECT_GE(mean, 0.0) << to_string(kind);
    EXPECT_GE(max, mean) << to_string(kind);
  }
}

}  // namespace
}  // namespace cebinae
