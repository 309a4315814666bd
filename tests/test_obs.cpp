// src/obs unit tests: MetricsRegistry cells and sampling order, TraceRow /
// TraceSink formatting and column extraction, and Probe scheduling on the
// deterministic event loop.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"

namespace cebinae::obs {
namespace {

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, CounterIsGetOrCreate) {
  MetricsRegistry reg;
  Counter& a = reg.counter("net.tx_bytes");
  Counter& b = reg.counter("net.tx_bytes");
  EXPECT_EQ(&a, &b);  // every Device shares one aggregate cell
  a.add(1500);
  b.inc();
  EXPECT_EQ(a.value(), 1501u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, CellAddressesSurviveLaterRegistrations) {
  MetricsRegistry reg;
  Counter& first = reg.counter("c0");
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  first.inc();
  EXPECT_EQ(&reg.counter("c0"), &first);  // deque-backed, no realloc
  EXPECT_EQ(reg.counter("c0").value(), 1u);
}

TEST(MetricsRegistry, HistogramTracksSummaryStats) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("tcp.srtt_s");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty histograms read as zeros
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.observe(0.020);
  h.observe(0.040);
  h.observe(0.030);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.090);
  EXPECT_DOUBLE_EQ(h.mean(), 0.030);
  EXPECT_DOUBLE_EQ(h.min(), 0.020);
  EXPECT_DOUBLE_EQ(h.max(), 0.040);
}

TEST(MetricsRegistry, SampleIntoUsesRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("z.counter").add(7);
  reg.counter("a.counter").add(2);
  reg.histogram("m.hist").observe(4.0);
  reg.histogram("m.hist").observe(8.0);

  TraceRow row(1.0);
  reg.sample_into(row);
  // Registration order, not alphabetical: z.counter, a.counter, then the
  // histogram's three derived scalars.
  const auto& scalars = row.scalars();
  ASSERT_EQ(scalars.size(), 5u);
  EXPECT_EQ(scalars[0].first, "z.counter");
  EXPECT_DOUBLE_EQ(scalars[0].second, 7.0);
  EXPECT_EQ(scalars[1].first, "a.counter");
  EXPECT_DOUBLE_EQ(scalars[1].second, 2.0);
  EXPECT_EQ(scalars[2].first, "m.hist.n");
  EXPECT_DOUBLE_EQ(scalars[2].second, 2.0);
  EXPECT_EQ(scalars[3].first, "m.hist.mean");
  EXPECT_DOUBLE_EQ(scalars[3].second, 6.0);
  EXPECT_EQ(scalars[4].first, "m.hist.max");
  EXPECT_DOUBLE_EQ(scalars[4].second, 8.0);
}

// --- TraceRow / TraceSink -------------------------------------------------

TEST(TraceRow, AccessorsAndAbsenceSentinels) {
  TraceRow row(3.5);
  row.set("jfi", 0.75);
  row.set("tput_Bps", std::vector<double>{100.0, 200.0});
  EXPECT_DOUBLE_EQ(row.t_s(), 3.5);
  EXPECT_DOUBLE_EQ(row.scalar("jfi"), 0.75);
  EXPECT_TRUE(std::isnan(row.scalar("absent")));
  ASSERT_NE(row.array("tput_Bps"), nullptr);
  EXPECT_EQ(row.array("tput_Bps")->size(), 2u);
  EXPECT_EQ(row.array("absent"), nullptr);
}

TEST(TraceRow, SerializesExactlyInInsertionOrder) {
  TraceRow row(2.0);
  row.set("jfi", 0.5);
  row.set("drops", 3.0);
  row.set("tput_Bps", std::vector<double>{1.0, 0.25});
  // t_s first, scalars before arrays, %.17g-exact numbers — the byte-stable
  // schema the determinism tests diff.
  EXPECT_EQ(row.to_json().str(), R"({"t_s":2,"jfi":0.5,"drops":3,"tput_Bps":[1,0.25]})");
}

TEST(TraceSink, ExtractsColumnsAndDrainsRows) {
  TraceSink sink;
  for (int i = 1; i <= 3; ++i) {
    TraceRow row(static_cast<double>(i));
    row.set("jfi", 1.0 / i);
    row.set("tput_Bps", std::vector<double>{10.0 * i, 20.0 * i});
    sink.push(std::move(row));
  }
  EXPECT_EQ(sink.size(), 3u);

  const std::vector<double> jfi = TraceSink::series_of(sink.rows(), "jfi");
  ASSERT_EQ(jfi.size(), 3u);
  EXPECT_DOUBLE_EQ(jfi[1], 0.5);


  const std::vector<TraceRow> rows = sink.take_rows();
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_TRUE(sink.empty());
  // Extraction works the same on moved-out rows (RunRecord::trace).
  EXPECT_DOUBLE_EQ(TraceSink::series_of(rows, "jfi")[0], 1.0);
}

// --- Probe ----------------------------------------------------------------

TEST(Probe, TicksEveryPeriodStartingAtPeriod) {
  Scheduler sched;
  TraceSink sink;
  Probe probe(sched, Milliseconds(100), sink);
  std::vector<double> seen;
  probe.add_sampler([&seen](Time now, TraceRow& row) {
    seen.push_back(now.seconds());
    row.set("x", now.seconds() * 2.0);
  });
  probe.start();
  sched.run_until(Seconds(1));
  // First tick at t=period, last at t=1.0 (run_until is inclusive).
  ASSERT_EQ(sink.size(), 10u);
  EXPECT_DOUBLE_EQ(sink.rows()[0].t_s(), 0.1);
  EXPECT_DOUBLE_EQ(sink.rows()[9].t_s(), 1.0);
  EXPECT_DOUBLE_EQ(sink.rows()[4].scalar("x"), 1.0);
  EXPECT_DOUBLE_EQ(seen[0], 0.1);
}

TEST(Probe, SamplersRunInRegistrationOrder) {
  Scheduler sched;
  TraceSink sink;
  Probe probe(sched, Milliseconds(10), sink);
  probe.add_sampler([](Time, TraceRow& row) { row.set("first", 1.0); });
  probe.add_sampler([](Time, TraceRow& row) { row.set("second", std::vector<double>{2.0}); });
  MetricsRegistry reg;
  reg.counter("third").add(3);
  probe.sample_registry(reg);
  probe.start();
  sched.run_until(Milliseconds(10));
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.rows()[0].to_json().str(),
            R"({"t_s":0.01,"first":1,"third":3,"second":[2]})");
}

}  // namespace
}  // namespace cebinae::obs
