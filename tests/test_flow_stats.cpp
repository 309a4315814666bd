#include "metrics/flow_stats.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

const FlowId kFlowA{1, 2, 5000, 5000};
const FlowId kFlowB{3, 4, 5001, 5001};

TEST(FlowStats, TotalsAccumulate) {
  FlowStatsCollector stats;
  stats.on_delivery(kFlowA, 100, Milliseconds(500));
  stats.on_delivery(kFlowA, 200, Milliseconds(700));
  EXPECT_EQ(stats.total_bytes(kFlowA), 300u);
  EXPECT_EQ(stats.total_bytes(kFlowB), 0u);
}

TEST(FlowStats, RegistrationFixesOrdering) {
  FlowStatsCollector stats;
  stats.register_flow(kFlowB);
  stats.register_flow(kFlowA);
  stats.on_delivery(kFlowA, 1000, Milliseconds(100));
  const auto goodputs = stats.goodputs_Bps(Time::zero(), Seconds(1));
  ASSERT_EQ(goodputs.size(), 2u);
  EXPECT_DOUBLE_EQ(goodputs[0], 0.0);     // B registered first
  EXPECT_DOUBLE_EQ(goodputs[1], 1000.0);  // A
}

TEST(FlowStats, DuplicateRegistrationIgnored) {
  FlowStatsCollector stats;
  stats.register_flow(kFlowA);
  stats.register_flow(kFlowA);
  EXPECT_EQ(stats.flow_count(), 1u);
}

TEST(FlowStats, UnregisteredDeliveryAutoRegisters) {
  FlowStatsCollector stats;
  stats.on_delivery(kFlowA, 5, Time::zero());
  EXPECT_EQ(stats.flow_count(), 1u);
}

TEST(FlowStats, WindowedGoodput) {
  FlowStatsCollector stats;
  stats.on_delivery(kFlowA, 1000, Milliseconds(500));   // bucket 0
  stats.on_delivery(kFlowA, 2000, Milliseconds(1500));  // bucket 1
  stats.on_delivery(kFlowA, 4000, Milliseconds(2500));  // bucket 2
  // Window [1s, 3s): buckets 1 and 2 -> 6000 bytes over 2 s.
  EXPECT_DOUBLE_EQ(stats.goodput_Bps(kFlowA, Seconds(1), Seconds(3)), 3000.0);
  // Whole run.
  EXPECT_DOUBLE_EQ(stats.goodput_Bps(kFlowA, Time::zero(), Seconds(3)), 7000.0 / 3.0);
}

TEST(FlowStats, ExactWindowCountsOnlyDeliveriesInsideIt) {
  FlowStatsCollector stats;
  stats.register_flow(kFlowA);
  stats.set_window(Milliseconds(150), Milliseconds(300));
  stats.on_delivery(kFlowA, 1000, Milliseconds(149));  // same bucket, before
  stats.on_delivery(kFlowA, 3000, Milliseconds(150));
  stats.on_delivery(kFlowA, 6000, Milliseconds(299));
  stats.on_delivery(kFlowA, 8000, Milliseconds(300));  // window end is open
  EXPECT_DOUBLE_EQ(stats.window_goodputs_Bps()[0], 9000.0 / 0.15);
}

TEST(FlowStats, EmptyWindowIsZero) {
  FlowStatsCollector stats;
  stats.on_delivery(kFlowA, 1000, Milliseconds(500));
  EXPECT_DOUBLE_EQ(stats.goodput_Bps(kFlowA, Seconds(5), Seconds(10)), 0.0);
  EXPECT_DOUBLE_EQ(stats.goodput_Bps(kFlowA, Seconds(3), Seconds(3)), 0.0);
}

}  // namespace
}  // namespace cebinae
