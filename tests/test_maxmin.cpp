#include "metrics/maxmin.hpp"

#include <gtest/gtest.h>

#include "sim/random.hpp"

namespace cebinae {
namespace {

TEST(MaxMin, SingleLinkEqualShare) {
  MaxMinProblem p;
  p.link_capacity = {30.0};
  p.flow_links = {{0}, {0}, {0}};
  const auto rates = maxmin_rates(p);
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 10.0);
}

TEST(MaxMin, Figure2bExample) {
  // The paper's Fig. 2b: l1=20, l2=10, l3=20, l4=20, l5=2.
  // A: l1,l3,l4 ; B: l2,l3(?) — per the figure A,B share l3; B,C share l2;
  // C exits via l5. Max-min: C=2 (l5), B=8 (l2 leftover), A=12 (l3 leftover).
  MaxMinProblem p;
  p.link_capacity = {20, 10, 20, 20, 2};
  p.flow_links = {
      {0, 2, 3},  // A
      {1, 2},     // B
      {1, 4},     // C
  };
  const auto rates = maxmin_rates(p);
  EXPECT_DOUBLE_EQ(rates[2], 2.0);
  EXPECT_DOUBLE_EQ(rates[1], 8.0);
  EXPECT_DOUBLE_EQ(rates[0], 12.0);
}

TEST(MaxMin, ParkingLotFromFig11) {
  // 3 links of 100; 8 long flows traverse all; 2 locals on l0, 8 on l1,
  // 4 on l2. Bottleneck is l1: long flows get 100/16 = 6.25; locals
  // get the leftovers: l0: (100-50)/2 = 25, l2: (100-50)/4 = 12.5.
  MaxMinProblem p;
  p.link_capacity = {100, 100, 100};
  for (int i = 0; i < 8; ++i) p.flow_links.push_back({0, 1, 2});
  for (int i = 0; i < 2; ++i) p.flow_links.push_back({0});
  for (int i = 0; i < 8; ++i) p.flow_links.push_back({1});
  for (int i = 0; i < 4; ++i) p.flow_links.push_back({2});
  const auto rates = maxmin_rates(p);
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(rates[i], 6.25, 1e-9);
  for (int i = 8; i < 10; ++i) EXPECT_NEAR(rates[i], 25.0, 1e-9);
  for (int i = 10; i < 18; ++i) EXPECT_NEAR(rates[i], 6.25, 1e-9);
  for (int i = 18; i < 22; ++i) EXPECT_NEAR(rates[i], 12.5, 1e-9);
}

TEST(MaxMin, AllocationIsParetoEfficientOnRandomTopologies) {
  // Property: every flow has at least one saturated link, and no link is
  // over capacity.
  RandomStream rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    MaxMinProblem p;
    const int links = 2 + static_cast<int>(rng.uniform_int(0, 4));
    const int flows = 2 + static_cast<int>(rng.uniform_int(0, 8));
    for (int l = 0; l < links; ++l) p.link_capacity.push_back(rng.uniform(10, 100));
    for (int f = 0; f < flows; ++f) {
      std::vector<std::size_t> path;
      for (int l = 0; l < links; ++l) {
        if (rng.bernoulli(0.5)) path.push_back(static_cast<std::size_t>(l));
      }
      if (path.empty()) path.push_back(0);
      p.flow_links.push_back(std::move(path));
    }
    const auto rates = maxmin_rates(p);

    std::vector<double> used(p.link_capacity.size(), 0.0);
    for (std::size_t f = 0; f < p.flow_links.size(); ++f) {
      for (std::size_t l : p.flow_links[f]) used[l] += rates[f];
    }
    for (std::size_t l = 0; l < used.size(); ++l) {
      EXPECT_LE(used[l], p.link_capacity[l] + 1e-6) << "trial " << trial;
    }
    for (std::size_t f = 0; f < p.flow_links.size(); ++f) {
      bool has_saturated_link = false;
      for (std::size_t l : p.flow_links[f]) {
        if (used[l] >= p.link_capacity[l] - 1e-6) has_saturated_link = true;
      }
      EXPECT_TRUE(has_saturated_link) << "trial " << trial << " flow " << f;
    }
  }
}

TEST(MaxMin, BottleneckDefinitionHolds) {
  // Definition 2: each flow has a saturated link where it is (one of) the
  // largest flows.
  MaxMinProblem p;
  p.link_capacity = {20, 10};
  p.flow_links = {{0}, {0, 1}, {1}};
  const auto rates = maxmin_rates(p);
  // Link 1 splits 5/5 between flows 1,2; flow 0 takes the rest of link 0.
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
  EXPECT_DOUBLE_EQ(rates[2], 5.0);
  EXPECT_DOUBLE_EQ(rates[0], 15.0);
}

}  // namespace
}  // namespace cebinae
