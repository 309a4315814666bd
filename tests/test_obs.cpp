// src/obs unit tests: MetricsRegistry cells, and TraceRow formatting and
// column extraction. Scenario's trace rows are tested in
// test_scenario_integration.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cebinae::obs {
namespace {

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, HistogramIsGetOrCreate) {
  MetricsRegistry reg;
  Histogram& a = reg.histogram("tcp.srtt_s");
  Histogram& b = reg.histogram("tcp.srtt_s");
  EXPECT_EQ(&a, &b);  // every TcpSender shares one aggregate cell
  a.observe(1.0);
  b.observe(3.0);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(MetricsRegistry, CellAddressesSurviveLaterRegistrations) {
  MetricsRegistry reg;
  Histogram& first = reg.histogram("h0");
  for (int i = 0; i < 100; ++i) reg.histogram("h" + std::to_string(i));
  first.observe(1.0);
  EXPECT_EQ(&reg.histogram("h0"), &first);  // node-based map, no realloc
  EXPECT_EQ(reg.histogram("h0").count(), 1u);
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

// --- TraceRow --------------------------------------------------------------

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
  exp::JsonObject obj;
  row.write_fields(obj);
  EXPECT_EQ(obj.str(), R"({"t_s":2,"jfi":0.5,"drops":3,"tput_Bps":[1,0.25]})");
}

TEST(TraceRow, SeriesOfExtractsOneScalarPerRow) {
  std::vector<TraceRow> rows;
  for (int i = 1; i <= 3; ++i) {
    TraceRow row(static_cast<double>(i));
    row.set("jfi", 1.0 / i);
    row.set("tput_Bps", std::vector<double>{10.0 * i, 20.0 * i});
    rows.push_back(std::move(row));
  }
  const std::vector<double> jfi = series_of(rows, "jfi");
  ASSERT_EQ(jfi.size(), 3u);
  EXPECT_DOUBLE_EQ(jfi[0], 1.0);
  EXPECT_DOUBLE_EQ(jfi[1], 0.5);
  // Arrays and absent names read as NaN.
  EXPECT_TRUE(std::isnan(series_of(rows, "tput_Bps")[0]));
}

}  // namespace
}  // namespace cebinae::obs
