#include "workload/trace_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

namespace cebinae {
namespace {

TraceConfig small_config() {
  TraceConfig cfg;
  cfg.duration = Milliseconds(500);
  cfg.seed = 1;
  return cfg;
}

TEST(TraceGen, DeterministicForSeed) {
  const auto a = SyntheticTrace::generate(small_config());
  const auto b = SyntheticTrace::generate(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].flow, b[i].flow);
  }
}

TEST(TraceGen, DifferentSeedsDiffer) {
  TraceConfig cfg = small_config();
  const auto a = SyntheticTrace::generate(cfg);
  cfg.seed = 2;
  const auto b = SyntheticTrace::generate(cfg);
  EXPECT_NE(a.size(), b.size());
}

TEST(TraceGen, SortedByTime) {
  const auto trace = SyntheticTrace::generate(small_config());
  EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end(),
                             [](const TracePacket& x, const TracePacket& y) {
                               return x.time < y.time;
                             }));
}

TEST(TraceGen, TimesWithinDuration) {
  const auto trace = SyntheticTrace::generate(small_config());
  ASSERT_FALSE(trace.empty());
  for (const auto& p : trace) {
    EXPECT_GE(p.time, Time::zero());
    EXPECT_LT(p.time, Milliseconds(500));
  }
}

TEST(TraceGen, FlowCountMatchesArrivalRate) {
  const auto trace = SyntheticTrace::generate(small_config());
  const auto summary = SyntheticTrace::summarize(trace);
  // 7000 arrivals/s * 0.5 s = ~3500 flows (Poisson, ±15%).
  EXPECT_GT(summary.flows, 2975u);
  EXPECT_LT(summary.flows, 4025u);
}

TEST(TraceGen, ByteDistributionIsHeavyTailed) {
  const auto trace = SyntheticTrace::generate(small_config());
  std::map<std::uint32_t, std::uint64_t> per_flow;
  std::uint64_t total = 0;
  for (const auto& p : trace) {
    per_flow[p.flow.src] += p.bytes;
    total += p.bytes;
  }
  // Top 10% of flows should carry the overwhelming majority of bytes.
  std::vector<std::uint64_t> sizes;
  for (const auto& [f, b] : per_flow) sizes.push_back(b);
  std::sort(sizes.rbegin(), sizes.rend());
  std::uint64_t top_decile = 0;
  for (std::size_t i = 0; i < sizes.size() / 10; ++i) top_decile += sizes[i];
  // Pareto(1.2) rates: the top decile carries the majority of bytes (a
  // uniform rate distribution would give it ~10-20%).
  EXPECT_GT(static_cast<double>(top_decile) / static_cast<double>(total), 0.5);
}

TEST(TraceGen, RateCapRespected) {
  // A draw above the cap is clamped to it; one below passes unchanged.
  constexpr double kCap = SyntheticTrace::kMaxFlowRateBps;
  EXPECT_EQ(SyntheticTrace::flow_rate_bps(1e12), kCap);
  EXPECT_EQ(SyntheticTrace::flow_rate_bps(kCap * 1.5), kCap);
  EXPECT_EQ(SyntheticTrace::flow_rate_bps(kCap), kCap);
  EXPECT_EQ(SyntheticTrace::flow_rate_bps(5e5), 5e5);

  // No flow of a generated trace sends faster than the cap: consecutive
  // packets of a flow are at least one packet's time at that rate apart
  // (less the nanosecond that timestamp truncation may take off).
  const auto trace = SyntheticTrace::generate(small_config());
  std::map<std::uint32_t, Time> last_sent;
  for (const auto& p : trace) {
    const auto [it, first] = last_sent.try_emplace(p.flow.src, p.time);
    if (first) continue;
    const Time min_gap = SecondsF(static_cast<double>(p.bytes) * 8.0 / kCap);
    EXPECT_GE(p.time - it->second, min_gap - Nanoseconds(1)) << "flow " << p.flow.src;
    it->second = p.time;
  }
}

TEST(TraceGen, SummaryCountsConsistent) {
  const auto trace = SyntheticTrace::generate(small_config());
  const auto summary = SyntheticTrace::summarize(trace);
  EXPECT_EQ(summary.packets, trace.size());
  std::uint64_t bytes = 0;
  for (const auto& p : trace) bytes += p.bytes;
  EXPECT_EQ(summary.bytes, bytes);
}

}  // namespace
}  // namespace cebinae
