#include "core/params.hpp"

#include "net/packet.hpp"

#include <gtest/gtest.h>

namespace cebinae {
namespace {

TEST(CebinaeParams, DefaultsMatchPaper) {
  CebinaeParams p;
  EXPECT_DOUBLE_EQ(p.delta_port, 0.01);
  EXPECT_DOUBLE_EQ(p.delta_flow, 0.01);
  EXPECT_DOUBLE_EQ(p.tau, 0.01);
  // dT and vdT are powers of two (Tofino-style masking).
  EXPECT_EQ(p.dt.ns() & (p.dt.ns() - 1), 0);
  EXPECT_EQ(CebinaeParams::kVdt.ns() & (CebinaeParams::kVdt.ns() - 1), 0);
  EXPECT_LT(CebinaeParams::kVdt, p.dt);
  EXPECT_EQ(CebinaeParams::kVdt, Nanoseconds(1 << 10));
  EXPECT_EQ(CebinaeParams::kLDeadline, Nanoseconds(1 << 16));
}

TEST(CebinaeParams, NextPow2) {
  EXPECT_EQ(CebinaeParams::next_pow2(Nanoseconds(1)).ns(), 1);
  EXPECT_EQ(CebinaeParams::next_pow2(Nanoseconds(2)).ns(), 2);
  EXPECT_EQ(CebinaeParams::next_pow2(Nanoseconds(3)).ns(), 4);
  EXPECT_EQ(CebinaeParams::next_pow2(Nanoseconds(1000)).ns(), 1024);
  EXPECT_EQ(CebinaeParams::next_pow2(Milliseconds(100)).ns(), 1ll << 27);
}

TEST(CebinaeParams, ForLinkSatisfiesEquation2) {
  // dT >= buffer/BW + vdT + L (Eq. 2).
  const std::uint64_t rate = 100'000'000;
  const std::uint64_t buffer = 850ull * kMtuBytes;
  const CebinaeParams p = CebinaeParams::for_link(rate, buffer, Milliseconds(100));
  const double drain_s = static_cast<double>(buffer) * 8.0 / rate;
  EXPECT_GE(p.dt.seconds(),
            drain_s + CebinaeParams::kVdt.seconds() + CebinaeParams::kLDeadline.seconds());
  // And remains a power of two.
  EXPECT_EQ(p.dt.ns() & (p.dt.ns() - 1), 0);
}

TEST(CebinaeParams, ForLinkCoversMaxRtt) {
  const CebinaeParams p =
      CebinaeParams::for_link(1'000'000'000, 850ull * kMtuBytes, Milliseconds(100));
  EXPECT_GE((p.dt * p.p_rounds).ns(), Milliseconds(100).ns());
}

TEST(CebinaeParams, SmallBufferGivesSmallDt) {
  const CebinaeParams small =
      CebinaeParams::for_link(10'000'000'000ull, 100ull * kMtuBytes, Milliseconds(10));
  const CebinaeParams large =
      CebinaeParams::for_link(100'000'000, 10'000ull * kMtuBytes, Milliseconds(10));
  EXPECT_LT(small.dt, large.dt);
}

class ParamsSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t, int>> {};

TEST_P(ParamsSweep, DerivedTimingAlwaysValid) {
  const auto [rate, buf_mtu, rtt_ms] = GetParam();
  const CebinaeParams p =
      CebinaeParams::for_link(rate, buf_mtu * kMtuBytes, Milliseconds(rtt_ms));
  EXPECT_GT(p.dt.ns(), 0);
  EXPECT_EQ(p.dt.ns() & (p.dt.ns() - 1), 0);
  EXPECT_GE(p.p_rounds, 1u);
  EXPECT_GE((p.dt * p.p_rounds).ns(), Milliseconds(rtt_ms).ns());
  const double drain_s = static_cast<double>(buf_mtu * kMtuBytes) * 8.0 / rate;
  EXPECT_GE(p.dt.seconds(), drain_s);
}

INSTANTIATE_TEST_SUITE_P(
    Links, ParamsSweep,
    ::testing::Combine(::testing::Values(100'000'000ull, 1'000'000'000ull,
                                         10'000'000'000ull),
                       ::testing::Values(100ull, 850ull, 8500ull, 41667ull),
                       ::testing::Values(5, 50, 200)));

}  // namespace
}  // namespace cebinae
