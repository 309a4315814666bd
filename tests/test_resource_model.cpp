#include "core/resource_model.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

TEST(ResourceModel, ReproducesTable3OneStage) {
  const TofinoResources r = estimate_tofino_resources(1);
  EXPECT_EQ(r.cache_stages, 1u);
  EXPECT_EQ(r.pipeline_stages, 11u);
  EXPECT_EQ(r.phv_bits, 937u);
  EXPECT_EQ(r.sram_kb, 2448u);
  EXPECT_EQ(r.tcam_kb, 15u);
  EXPECT_EQ(r.vliw_instructions, 89u);
  EXPECT_EQ(r.queues, 64u);
}

TEST(ResourceModel, ReproducesTable3TwoStage) {
  const TofinoResources r = estimate_tofino_resources(2);
  EXPECT_EQ(r.phv_bits, 1042u);
  EXPECT_EQ(r.sram_kb, 4096u);
  EXPECT_EQ(r.tcam_kb, 34u);
  EXPECT_EQ(r.vliw_instructions, 93u);
  EXPECT_EQ(r.queues, 64u);
}

TEST(ResourceModel, UnderTwentyFivePercentBudget) {
  // The paper: "Cebinae's resource consumption is less than 25% for all
  // types of compute and memory resources" (within rounding of our
  // approximate chip budgets).
  for (std::uint32_t stages : {1u, 2u}) {
    const TofinoResources r = estimate_tofino_resources(stages);
    EXPECT_LT(r.phv_fraction(), 0.26) << stages;
    EXPECT_LT(r.sram_fraction(), 0.27) << stages;
    EXPECT_LT(r.tcam_fraction(), 0.12) << stages;
  }
}

TEST(ResourceModel, QueuesAreTwoPerPort) {
  EXPECT_EQ(estimate_tofino_resources(1).queues, 2u * 32);
}

TEST(ResourceModel, ExtrapolatesMonotonically) {
  const TofinoResources r2 = estimate_tofino_resources(2);
  const TofinoResources r4 = estimate_tofino_resources(4);
  EXPECT_GT(r4.phv_bits, r2.phv_bits);
  EXPECT_GT(r4.sram_kb, r2.sram_kb);
  EXPECT_GT(r4.tcam_kb, r2.tcam_kb);
  EXPECT_GT(r4.vliw_instructions, r2.vliw_instructions);
  EXPECT_EQ(r4.queues, r2.queues);  // never more than 2 priorities per port
}

}  // namespace
}  // namespace cebinae
