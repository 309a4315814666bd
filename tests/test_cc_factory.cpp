#include "tcp/cc_factory.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

TEST(CcFactory, MakesEveryAlgorithm) {
  for (CcaType t : {CcaType::kNewReno, CcaType::kCubic, CcaType::kBic, CcaType::kVegas,
                    CcaType::kBbr}) {
    auto cc = make_cc(t);
    ASSERT_NE(cc, nullptr);
    EXPECT_GT(cc->cwnd_bytes(), 0u);
  }
}

TEST(CcFactory, NamesMatchAlgorithms) {
  EXPECT_EQ(make_cc(CcaType::kNewReno)->name(), "newreno");
  EXPECT_EQ(make_cc(CcaType::kCubic)->name(), "cubic");
  EXPECT_EQ(make_cc(CcaType::kBic)->name(), "bic");
  EXPECT_EQ(make_cc(CcaType::kVegas)->name(), "vegas");
  EXPECT_EQ(make_cc(CcaType::kBbr)->name(), "bbr");
}

// Only BBR reads delivery-rate samples, so only a BBR sender keeps
// per-segment rate stamps.
TEST(CcFactory, OnlyBbrUsesDeliveryRate) {
  EXPECT_FALSE(make_cc(CcaType::kNewReno)->uses_delivery_rate());
  EXPECT_FALSE(make_cc(CcaType::kCubic)->uses_delivery_rate());
  EXPECT_FALSE(make_cc(CcaType::kBic)->uses_delivery_rate());
  EXPECT_FALSE(make_cc(CcaType::kVegas)->uses_delivery_rate());
  EXPECT_TRUE(make_cc(CcaType::kBbr)->uses_delivery_rate());
}

TEST(CcFactory, InstancesAreIndependent) {
  auto a = make_cc(CcaType::kNewReno);
  auto b = make_cc(CcaType::kNewReno);
  a->on_loss(Seconds(1), a->cwnd_bytes());
  EXPECT_LT(a->cwnd_bytes(), b->cwnd_bytes());
}

}  // namespace
}  // namespace cebinae
