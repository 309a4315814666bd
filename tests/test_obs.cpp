// src/obs unit tests: MetricsRegistry cells. Scenario's trace rows are
// tested in test_scenario_integration.cpp, the row type in test_json_row.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

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
  for (int i = 0; i < 100; ++i) reg.histogram(std::string("h").append(std::to_string(i)));
  first.observe(1.0);
  EXPECT_EQ(&reg.histogram("h0"), &first);  // node-based map, no realloc
  EXPECT_EQ(reg.histogram("h0").count(), 1u);
}

TEST(MetricsRegistry, HistogramTracksSummaryStats) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("tcp.srtt_s");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);  // empty histograms read as zeros
  h.observe(0.020);
  h.observe(0.040);
  h.observe(0.030);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.090);
  EXPECT_DOUBLE_EQ(h.mean(), 0.030);
  EXPECT_DOUBLE_EQ(h.max(), 0.040);
}

}  // namespace
}  // namespace cebinae::obs
